"""Tests for the serve-replay CLI subcommand (throughput serving path)."""

import json

import pytest

from repro.cli.main import _build_parser, main


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_serve") / "anl.log"
    assert main([
        "generate", "--profile", "ANL", "--scale", "0.02",
        "--seed", "7", "-o", str(path),
    ]) == 0
    return path


@pytest.fixture(scope="module")
def model_path(log_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_serve_model") / "model.json"
    assert main(["train", str(log_path), "-m", str(path)]) == 0
    return path


def test_serve_replay_prints_throughput_summary(log_path, model_path, capsys):
    rc = main([
        "serve-replay", str(log_path), "-m", str(model_path), "--shards", "4",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "serve-replay:" in out
    assert "events/sec" in out
    assert "shard" in out
    assert "combined:" in out


def test_serve_replay_job_key_and_jobs(log_path, model_path, capsys):
    rc = main([
        "serve-replay", str(log_path), "-m", str(model_path),
        "--shards", "3", "--key", "job", "--jobs", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "key=job" in out


def test_serve_replay_emits_serve_metrics(log_path, model_path, tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    rc = main([
        "serve-replay", str(log_path), "-m", str(model_path),
        "--emit-metrics", str(metrics),
    ])
    assert rc == 0
    doc = json.loads(metrics.read_text())
    assert "serve.events_per_sec" in doc["gauges"]
    assert "serve.feed_seconds" in doc["histograms"]
    assert any(k.startswith("serve.shard_events") for k in doc["counters"])
    assert any(s["name"] == "serve.replay" for s in doc["spans"])


def test_serve_replay_matches_watch_counts(log_path, model_path, capsys):
    """1-shard serve-replay resolves the same stream watch does."""
    main(["watch", str(log_path), "-m", str(model_path), "--quiet"])
    watch_out = capsys.readouterr().out
    main([
        "serve-replay", str(log_path), "-m", str(model_path), "--shards", "1",
    ])
    serve_out = capsys.readouterr().out
    import re

    watch = re.search(
        r"(\d+) events, (\d+) failures, (\d+) warnings", watch_out
    )
    serve = re.search(
        r"combined: (\d+) warnings / (\d+) failures", serve_out
    )
    assert watch and serve
    assert serve.group(1) == watch.group(3)  # warnings
    assert serve.group(2) == watch.group(2)  # failures


def test_serve_replay_policy_prints_ledger(log_path, model_path, capsys):
    rc = main([
        "serve-replay", str(log_path), "-m", str(model_path),
        "--policy", "cost-aware", "--checkpoint-cost", "60",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "actions (cost-aware, seed 0):" in out
    assert "node-seconds:" in out
    assert "reactive loss (no action):" in out


def test_serve_replay_without_policy_has_no_ledger(log_path, model_path, capsys):
    assert main(["serve-replay", str(log_path), "-m", str(model_path)]) == 0
    assert "actions (" not in capsys.readouterr().out


def test_serve_replay_rejects_unknown_policy(log_path, model_path):
    with pytest.raises(SystemExit):
        main([
            "serve-replay", str(log_path), "-m", str(model_path),
            "--policy", "reboot",
        ])


#: Flags serve-replay and serve-daemon share: (flag, attribute, default,
#: a command-line value, its parsed form).
SHARED_FLAGS = [
    ("--model", "model", None, "m.json", "m.json"),
    ("--shards", "shards", 4, "3", 3),
    ("--key", "key", "midplane", "job", "job"),
    ("--registry", "registry", None, "reg", "reg"),
    ("--model-ref", "model_ref", "latest", "prod", "prod"),
    ("--retrain-every", "retrain_every", None, "100", 100),
    ("--drift-threshold", "drift_threshold", None, "0.3", 0.3),
    ("--drift-window", "drift_window", 1024, "64", 64),
    ("--retrain-window", "retrain_window", 50_000, "500", 500),
    ("--incremental", "incremental", None, None, True),
]


@pytest.mark.parametrize("command", ["serve-replay", "serve-daemon"])
@pytest.mark.parametrize("flag,attr,default,value,parsed", SHARED_FLAGS)
def test_serve_commands_share_lifecycle_flags(
    command, flag, attr, default, value, parsed
):
    parser = _build_parser()
    assert getattr(parser.parse_args([command]), attr) == default
    argv = [command, flag] + ([] if value is None else [value])
    assert getattr(parser.parse_args(argv), attr) == parsed


def test_serve_commands_keep_their_own_chunk_and_jobs_defaults():
    parser = _build_parser()
    replay = parser.parse_args(["serve-replay"])
    daemon = parser.parse_args(["serve-daemon"])
    assert (replay.chunk, replay.jobs) == (2048, None)
    assert (daemon.chunk, daemon.jobs) == (512, None)
