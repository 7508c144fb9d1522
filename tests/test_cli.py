"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main, parse_config
from repro.frontend import PartitionType


class TestConfigParsing:
    def test_pipeline_and_unroll(self):
        config = parse_config(["L0=pipeline+unroll:4"], [])
        directive = config.loop("L0")
        assert directive.pipeline
        assert directive.unroll_factor == 4

    def test_pipeline_with_target_ii(self):
        config = parse_config(["L0=pipeline:3"], [])
        assert config.loop("L0").ii == 3

    def test_flatten(self):
        assert parse_config(["L0=flatten"], []).loop("L0").flatten

    def test_array_partition_spec(self):
        config = parse_config([], ["A=cyclic:4:2"])
        directive = config.array("A")
        assert directive.partition_type is PartitionType.CYCLIC
        assert directive.factor == 4
        assert directive.dim == 2

    def test_array_defaults(self):
        directive = parse_config([], ["A=block"]).array("A")
        assert directive.partition_type is PartitionType.BLOCK
        assert directive.factor == 2

    def test_unknown_directive_rejected(self):
        with pytest.raises(SystemExit):
            parse_config(["L0=dataflow"], [])

    def test_out_of_range_value_rejected(self):
        with pytest.raises(SystemExit, match="unroll must be"):
            parse_config(["L0=unroll:-3"], [])

    def test_empty_specs_give_baseline(self):
        assert parse_config([], []).describe() == "baseline"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.gnn == "graphsage"
        assert args.configs == 24

    def test_predict_options(self):
        args = build_parser().parse_args(
            ["predict", "--kernel", "gemm", "--flow", "--loop", "L0=pipeline"]
        )
        assert args.flow and args.loop == ["L0=pipeline"]

    def test_dse_sharding_defaults(self):
        args = build_parser().parse_args(["dse"])
        assert args.workers == 1
        assert args.shard_strategy == "pragma-locality"

    def test_dse_sharding_options(self):
        args = build_parser().parse_args(
            ["dse", "--workers", "4", "--shard-strategy", "round-robin"]
        )
        assert args.workers == 4
        assert args.shard_strategy == "round-robin"

    def test_dse_unknown_shard_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse", "--shard-strategy", "alphabetical"])

    def test_dse_checkpoint_defaults(self):
        args = build_parser().parse_args(["dse"])
        assert args.checkpoint is None
        assert not args.resume
        assert args.checkpoint_interval == 64
        assert not args.write_back

    def test_dse_checkpoint_options(self):
        args = build_parser().parse_args([
            "dse", "--workers", "2", "--checkpoint", "sweep.ckpt",
            "--resume", "--checkpoint-interval", "16", "--write-back",
        ])
        assert args.checkpoint == "sweep.ckpt"
        assert args.resume and args.write_back
        assert args.checkpoint_interval == 16

    def test_serve_hygiene_defaults(self):
        args = build_parser().parse_args(["serve", "--model", "m.npz"])
        assert args.idle_timeout == 300.0
        assert args.max_line_bytes is None

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--model", "m.npz"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.batch_window_ms == 2.0
        assert args.max_batch == 512
        assert args.max_pending == 4096
        assert args.precision == "float64"
        assert not args.warm_cache

    def test_serve_requires_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_rejects_bad_bounds(self):
        with pytest.raises(SystemExit, match="--max-batch"):
            main(["serve", "--model", "m.npz", "--max-batch", "0"])
        with pytest.raises(SystemExit, match="--max-pending"):
            main(["serve", "--model", "m.npz", "--max-pending", "0"])
        with pytest.raises(SystemExit, match="--batch-window-ms"):
            main(["serve", "--model", "m.npz", "--batch-window-ms", "-1"])
        with pytest.raises(SystemExit, match="--idle-timeout"):
            main(["serve", "--model", "m.npz", "--idle-timeout", "-1"])
        with pytest.raises(SystemExit, match="--max-line-bytes"):
            main(["serve", "--model", "m.npz", "--max-line-bytes", "10"])

    def test_dse_checkpoint_flag_validation(self):
        with pytest.raises(SystemExit, match="--resume requires --checkpoint"):
            main(["dse", "--kernel", "fir", "--resume"])
        with pytest.raises(SystemExit, match="--checkpoint requires"):
            main(["dse", "--kernel", "fir", "--checkpoint", "s.ckpt"])
        with pytest.raises(SystemExit, match="--write-back requires"):
            main(["dse", "--kernel", "fir", "--write-back"])


class TestCommands:
    def test_predict_with_flow(self, capsys):
        exit_code = main([
            "predict", "--kernel", "gemm", "--flow",
            "--loop", "L0_0=pipeline",
            "--array", "A=cyclic:4:2",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        payload = json.loads(output[output.index("{"):])
        assert payload["latency"] > 0
        assert payload["lut"] > 0

    def test_predict_unknown_kernel_exits(self):
        with pytest.raises(SystemExit):
            main(["predict", "--kernel", "nonexistent", "--flow"])

    def test_predict_from_source_file(self, tmp_path, capsys):
        source = tmp_path / "kernel.c"
        source.write_text(
            "void scale(int a[16], int b[16]) { int i;"
            " for (i = 0; i < 16; i++) { b[i] = 2 * a[i]; } }"
        )
        exit_code = main(["predict", "--source", str(source), "--flow"])
        assert exit_code == 0
        assert "scale" in capsys.readouterr().out

    def test_dse_exhaustive_front(self, capsys):
        exit_code = main(["dse", "--kernel", "fir", "--configs", "12"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Pareto front" in output

    def test_dse_workers_require_model(self):
        with pytest.raises(SystemExit, match="--workers requires --model"):
            main(["dse", "--kernel", "fir", "--workers", "2"])


class TestInterrupts:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        """An interrupt that escapes a subcommand maps to 128 + SIGINT."""
        import repro.cli as cli_module

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "cmd_dse", interrupted)
        assert main(["dse", "--kernel", "fir"]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestImportFootprint:
    def test_cli_import_leaves_networkx_unloaded(self):
        """The program reads CDFGs through their columns only, so importing
        the CLI (and with it every subsystem) must not pull in networkx."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        child = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('networkx' in sys.modules)"],
            capture_output=True, text=True, check=True, env=env,
        )
        assert child.stdout.strip() == "False"
