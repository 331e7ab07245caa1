"""Tests for the config fingerprint and the command-line interface."""

import json

import pytest

from repro.cli import main as cli_main
from repro.core.config import FlashMemConfig
from repro.core.flashmem import FlashMem
from repro.core.store import flashmem_config_fingerprint
from repro.opg.problem import OpgConfig


def _fingerprint(**opg) -> str:
    return flashmem_config_fingerprint(FlashMemConfig(opg=OpgConfig(**opg)))


class TestFingerprint:
    def test_stable(self):
        assert _fingerprint() == _fingerprint()

    def test_sensitive_to_hyperparameters(self):
        assert _fingerprint() != _fingerprint(lam=0.5)
        assert _fingerprint() != _fingerprint(m_peak_bytes=1 << 20)

    def test_hint_order_irrelevant(self):
        a = _fingerprint(preload_hint_weights=frozenset({"x", "y"}))
        b = _fingerprint(preload_hint_weights=frozenset({"y", "x"}))
        assert a == b


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "GPTN-S" in out and "OnePlus 12" in out and "table7" in out

    def test_run_with_baseline(self, capsys):
        code = cli_main(["run", "ResNet50", "--baseline", "SMem"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FlashMem:" in out and "SMem:" in out and "Speedup" in out

    def test_run_unsupported_baseline_model(self, capsys):
        code = cli_main(["run", "ViT", "--baseline", "NCNN"])
        assert code == 0
        assert "not supported" in capsys.readouterr().out

    def test_plan_export(self, tmp_path, capsys):
        out_file = tmp_path / "plan.json"
        code = cli_main(["plan", "ResNet50", "--out", str(out_file)])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["model"] == "ResNet50"
        assert payload["schedules"]

    def test_plan_solver_stats(self, capsys):
        code = cli_main(["plan", "ResNet50", "--solver-stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Solver stats" in out
        assert "nodes/s" in out
        assert "closed by the SRPT floor" in out

    def test_run_solver_stats(self, capsys):
        code = cli_main(["run", "ResNet50", "--solver-stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Solver stats" in out
        assert "windows replayed from cache" in out
        assert "compiled in" in out

    def test_profile_compile(self, capsys, monkeypatch):
        compiled = []
        compile_fn = FlashMem.compile

        def spy(self, *args, **kwargs):
            compiled.append(compile_fn(self, *args, **kwargs))
            return compiled[-1]

        monkeypatch.setattr(FlashMem, "compile", spy)
        code = cli_main(["profile", "compile", "DepA-S", "oneplus12", "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Profiling compile" in out
        assert "OnePlus 12" in out  # alias resolved to the canonical preset
        assert "cumulative" in out
        assert "compile finished in" in out
        # The phase split covers every adaptive-fusion solve, not the last.
        (solves,) = [c.fusion_report.solver_iterations for c in compiled]
        assert len(solves) > 1
        split = next(line for line in out.splitlines() if "phase split" in line)
        assert f"over {len(solves)} solves" in split
        assert f"cp {sum(it['cp_solve_s'] for it in solves):.3f}s" in split

    def test_device_alias_accepted_by_run(self, capsys):
        code = cli_main(["run", "ResNet50", "--device", "PIXEL-8"])
        assert code == 0
        assert "Pixel 8" in capsys.readouterr().out

    def test_experiment_command(self, capsys, tmp_path):
        assert cli_main(["experiment", "table5", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "cache:" in out and "1 stored" in out

    def test_experiment_warm_rerun_hits_cache(self, capsys, tmp_path):
        assert cli_main(["experiment", "table5", "--cache-dir", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        assert cli_main(["experiment", "table5", "--cache-dir", str(tmp_path)]) == 0
        second = capsys.readouterr().out
        assert "[cached]" in second and "1 hits" in second
        # The rendered table itself is byte-for-byte identical.
        assert first.split("\n\n")[0] == second.split("\n\n")[0]

    def test_experiment_no_cache_bypasses_store(self, capsys, tmp_path):
        code = cli_main(["experiment", "table5", "--no-cache",
                         "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache: disabled (--no-cache)" in out
        assert not list(tmp_path.rglob("*.pkl"))

    def test_experiment_results_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code = cli_main(["experiment", "table5", "--no-cache",
                         "--results-dir", str(out_dir)])
        assert code == 0
        assert "Table 5" in (out_dir / "table5.txt").read_text()

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["run", "ResNet50"], ["plan", "ResNet50"], ["profile", "compile", "ResNet50", "oneplus12"],
    ], ids=["run", "plan", "profile-compile"])
    def test_solver_selection_flags_rejected(self, argv, capsys):
        """The solver has one engine: there is no option to pick another."""
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--portfolio", "2"])
        assert exc.value.code == 2  # argparse usage error, before any compile
        assert "--portfolio" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "ResNet50"], ["compile", "ResNet50"], ["plan", "ResNet50"],
        ["profile", "compile", "ResNet50", "oneplus12"], ["profile", "run", "ResNet50", "oneplus12"],
    ], ids=["run", "compile", "plan", "profile-compile", "profile-run"])
    def test_time_limit_flag_rejected(self, argv, capsys):
        """The solver is bounded by work, not the clock: no deadline to set."""
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--time-limit", "1"])
        assert exc.value.code == 2  # argparse usage error, before any compile
        assert "--time-limit" in capsys.readouterr().err

    @pytest.mark.parametrize("option, message", [
        (["--preload-ratio", "1.5"], "target_preload_ratio must be in [0, 1]"),
        (["--context", "-4"], "context_len must be >= 0"),
        (["nodevice"], "unknown device 'nodevice'"),
    ], ids=["ratio", "context", "device"])
    def test_compile_request_errors_are_usage_errors(self, option, message, capsys):
        """A malformed compile request is an argparse usage error (exit
        code 2), not a plain failure, and nothing is compiled."""
        with pytest.raises(SystemExit) as exc:
            cli_main(["compile", "GPTN-S"] + option)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "ViT", "nodevice"],
        ["profile", "run", "ViT", "nodevice"],
        ["profile", "compile", "ViT", "nodevice"],
        ["profile", "capacity", "ViT", "nodevice"],
        ["plan", "ViT", "--device", "nodevice"],
        ["serve-trace", "{trace}", "--devices", "OnePlus 12", "nodevice"],
        ["run", "ViT", "--preload-ratio", "1.5"],
        ["run", "ViT", "--preload-ratio", "nan"],
    ], ids=["run", "profile-run", "profile-compile", "profile-capacity", "plan",
            "serve-trace", "run-ratio", "run-ratio-nan"])
    def test_malformed_device_or_ratio_is_usage_error(self, argv, tmp_path, capsys):
        """Every subcommand resolves device names and preload ratios while
        parsing: exit code 2 and one ``error:`` line, before any compile
        (a device was a KeyError traceback, a ratio a silent clamp)."""
        trace = tmp_path / "trace.json"
        assert cli_main(["make-trace", str(trace), "--duration-s", "5"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli_main([arg.format(trace=trace) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
        assert ("unknown device 'nodevice'" in err
                or "target_preload_ratio must be in [0, 1]" in err)

    @pytest.mark.parametrize("argv", [
        ["run", "GPTN-S"], ["profile", "run", "GPTN-S", "oneplus12"],
    ], ids=["run", "profile-run"])
    @pytest.mark.parametrize("context", [None, "0"], ids=["no-context", "zero-context"])
    def test_decode_without_context_is_usage_error(self, argv, context, capsys):
        """A decode run needs a prompt length: a typed usage error, not a
        traceback from graph building."""
        argv = argv + ["--scenario", "decode", "--tokens", "64"]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + (["--context", context] if context else []))
        assert exc.value.code == 2
        assert "--context" in capsys.readouterr().err
