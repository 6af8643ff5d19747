"""Tests for the ``python -m repro`` command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_args(self):
        args = build_parser().parse_args(
            ["run", "table3", "--profile", "full", "--output", "/tmp/x"])
        assert args.experiment == "table3"
        assert args.profile == "full"

    def test_invalid_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table3", "--profile", "huge"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_usage_and_nonzero_exit(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code != 0
        assert "usage:" in capsys.readouterr().err

    def test_profile_command_args(self):
        args = build_parser().parse_args(
            ["profile", "--sink", "jsonl", "--out", "/tmp/x.jsonl"])
        assert args.command == "profile"
        assert args.sink == "jsonl"
        assert args.out == "/tmp/x.jsonl"

    def test_profile_invalid_sink_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--sink", "xml"])


class TestMain:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "fig6" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_datasets_command(self, tmp_path, capsys):
        assert main(["datasets", "--output", str(tmp_path), "--scale",
                     "0.15"]) == 0
        out = capsys.readouterr().out
        assert "lastfm_like" in out
        assert os.path.exists(tmp_path / "lastfm_like" / "interactions.tsv")
        assert os.path.exists(tmp_path / "disgenet_like" / "user_kg.tsv")

    def test_datasets_roundtrip(self, tmp_path):
        from repro.data import load_dataset
        main(["datasets", "--output", str(tmp_path), "--scale", "0.15"])
        dataset = load_dataset(str(tmp_path / "amazon_book_like"))
        assert dataset.name == "amazon_book_like"
        assert dataset.ui_graph.num_interactions > 0


def test_repro_env_knobs_are_the_six_entry_points():
    """Every ``REPRO_*`` token under src/repro, docstrings included, is
    one of the six settings a workflow has no other way to reach:
    workers and store for ``repro run`` experiments, the profile for
    ``pytest benchmarks/``, the PPR method for the table benches, and
    the two deployment settings.  Configuration that only tests need
    goes through parameters and fixtures instead."""
    import re
    from pathlib import Path

    import repro

    src_root = Path(repro.__file__).parent
    names = set()
    for path in src_root.rglob("*.py"):
        names.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert names == {"REPRO_NUM_WORKERS", "REPRO_PPR_STORE",
                     "REPRO_PROFILE", "REPRO_PPR_METHOD",
                     "REPRO_RUNS_DIR", "REPRO_METRICS_PORT"}


def test_train_config_fields_are_pinned():
    """``TrainConfig`` holds these 22 fields and no others.  A new field
    is a new option; it has to be added here on purpose, next to the
    knob guard above, and a field nothing sets should be deleted."""
    import dataclasses

    from repro.core import TrainConfig

    assert [field.name for field in dataclasses.fields(TrainConfig)] == [
        "epochs", "batch_users", "pairs_per_user", "learning_rate",
        "weight_decay", "k", "sampler", "ppr_alpha", "ppr_iterations",
        "ppr_method", "ppr_epsilon", "ppr_top_m", "ppr_chunk_users",
        "ppr_store", "ppr_store_dir", "ppr_degree_normalized",
        "num_workers", "seed", "verbose", "patience", "min_improvement",
        "health_policy"]
