"""Tests for the export CLI subcommand."""

import csv
import importlib

import pytest

from repro.cli.main import main


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_export") / "log.log"
    assert main([
        "generate", "--profile", "ANL", "--scale", "0.02",
        "--seed", "5", "-o", str(path),
    ]) == 0
    return path


def test_export_writes_three_csvs(log_path, tmp_path, capsys):
    outdir = tmp_path / "csvs"
    rc = main([
        "export", str(log_path), "-o", str(outdir),
        "--folds", "4", "--windows", "15,60",
    ])
    assert rc == 0
    for name in ("figure2_cdf.csv", "table4_categories.csv", "sweep_meta.csv"):
        assert (outdir / name).exists(), name

    sweep = list(csv.DictReader((outdir / "sweep_meta.csv").open()))
    assert [r["window_minutes"] for r in sweep] == ["15", "60"]
    assert all(0.0 <= float(r["precision"]) <= 1.0 for r in sweep)

    cdf = list(csv.DictReader((outdir / "figure2_cdf.csv").open()))
    probs = [float(r["probability"]) for r in cdf]
    assert probs == sorted(probs)  # CDF is monotone

    cats = list(csv.reader((outdir / "table4_categories.csv").open()))
    assert cats[0] == ["category", "log"]
    assert cats[-1][0] == "total"


def test_export_creates_outdir(log_path, tmp_path):
    outdir = tmp_path / "deep" / "nested"
    rc = main([
        "export", str(log_path), "-o", str(outdir),
        "--method", "rule", "--folds", "4", "--windows", "30",
    ])
    assert rc == 0
    assert (outdir / "sweep_rule.csv").exists()


@pytest.fixture
def sweep_calls(monkeypatch):
    """Record every ``sweep`` call the CLI makes, then run the real one."""
    # The package attribute ``repro.cli.main`` is the entry-point function,
    # not the module, so look the module up by name.
    cli = importlib.import_module("repro.cli.main")
    calls = []
    real = cli.sweep

    def recording(grid, events, **kwargs):
        calls.append((list(grid), kwargs))
        return real(grid, events, **kwargs)

    monkeypatch.setattr(cli, "sweep", recording)
    return calls


@pytest.mark.parametrize("command", ["report", "export"])
def test_engine_and_predictor_flags_reach_the_sweep(
    command, log_path, tmp_path, sweep_calls
):
    argv = [command, str(log_path), "--folds", "3", "--windows", "15,60",
            "--min-support", "0.08", "--incremental"]
    if command == "export":
        argv += ["-o", str(tmp_path / "csvs")]
    assert main(argv) == 0
    (grid, kwargs), = sweep_calls
    assert kwargs["incremental"] is True
    assert [spec.get("min_support") for _, spec in grid] == [0.08, 0.08]
