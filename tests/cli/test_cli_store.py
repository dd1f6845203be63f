"""CLI surface for columnar stores: unified --store I/O, store info/convert,
generate --store, and streaming serve-replay."""

import json

import pytest

from repro.cache.fingerprint import store_fingerprint
from repro.cli.main import main
from repro.ras.columnar import is_columnar_dir, open_store
from repro.ras.logfile import read_log


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-store") / "anl-store"
    rc = main([
        "generate", "--profile", "ANL", "--scale", "0.01",
        "--seed", "3", "--store", str(path), "--segments", "2",
    ])
    assert rc == 0
    return path


def test_generate_store_writes_columnar_dir(store_path, capsys):
    assert is_columnar_dir(store_path)
    store = open_store(store_path)
    assert len(store) > 0
    assert store.backend_kind == "columnar"


def test_generate_rejects_both_or_neither_destination(tmp_path, capsys):
    rc = main(["generate", "--scale", "0.01"])
    assert rc == 2
    rc = main([
        "generate", "--scale", "0.01",
        "-o", str(tmp_path / "a.log"), "--store", str(tmp_path / "b"),
    ])
    assert rc == 2
    assert "exactly one destination" in capsys.readouterr().err


def test_store_info_reports_manifest(store_path, capsys):
    rc = main(["store", "info", str(store_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rows:" in out
    assert "time-sorted: True" in out
    assert "segments: 2" in out


def test_store_info_fingerprint(store_path, capsys):
    rc = main(["store", "info", str(store_path), "--fingerprint"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fingerprint: " in out


def test_store_info_rejects_non_store(tmp_path, capsys):
    rc = main(["store", "info", str(tmp_path / "nope")])
    assert rc == 2
    assert "cannot open store" in capsys.readouterr().err


def test_store_convert_round_trip(store_path, tmp_path, capsys):
    log_path = tmp_path / "out.log"
    rc = main(["store", "convert", str(store_path), str(log_path)])
    assert rc == 0
    assert log_path.stat().st_size > 0

    back = tmp_path / "back-store"
    rc = main([
        "store", "convert", str(log_path), str(back), "--chunk", "9999",
    ])
    assert rc == 0
    assert is_columnar_dir(back)
    assert len(open_store(back)) == len(open_store(store_path))
    assert store_fingerprint(open_store(back)) == store_fingerprint(read_log(log_path))

    again = tmp_path / "again.log"
    rc = main(["store", "convert", str(back), str(again)])
    assert rc == 0
    assert again.read_text() == log_path.read_text()


def test_store_convert_log_equals_read_log(store_path, tmp_path):
    """Text -> columnar skips a bad line and equals read_log across chunks."""
    lines = tmp_path / "src.log"
    main(["store", "convert", str(store_path), str(lines)])
    text = lines.read_text().splitlines(keepends=True)
    text.insert(5, "this line is not a RAS record\n")
    lines.write_text("".join(text))
    dst = tmp_path / "chunked"
    rc = main(["store", "convert", str(lines), str(dst), "--chunk", "4096"])
    assert rc == 0
    converted = open_store(dst)
    assert len(converted) == len(text) - 1
    assert len(converted) > 4096
    assert store_fingerprint(converted) == store_fingerprint(read_log(lines, errors="skip"))


def test_store_convert_compacts_columnar_to_columnar(store_path, tmp_path):
    compacted = tmp_path / "compacted"
    rc = main([
        "store", "convert", str(store_path), str(compacted),
        "--to", "columnar", "--chunk", "100000",
    ])
    assert rc == 0
    assert len(open_store(compacted)) == len(open_store(store_path))


def test_preprocess_accepts_store_directory(store_path, capsys):
    rc = main(["preprocess", str(store_path)])
    assert rc == 0
    assert "unique events" in capsys.readouterr().out


def test_preprocess_explicit_store_flag(store_path, capsys):
    rc = main(["preprocess", "--store", str(store_path)])
    assert rc == 0
    assert "unique events" in capsys.readouterr().out


def test_commands_reject_ambiguous_sources(store_path, tmp_path, capsys):
    rc = main(["preprocess"])
    assert rc == 2
    rc = main(["preprocess", str(store_path), "--store", str(store_path)])
    assert rc == 2
    assert "exactly one event source" in capsys.readouterr().err
    rc = main(["preprocess", "--store", str(tmp_path / "missing")])
    assert rc == 2


def test_evaluate_store_backend_columnar(store_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
    rc = main([
        "evaluate", str(store_path), "--store-backend", "columnar",
        "--folds", "2", "--method", "statistical",
    ])
    assert rc == 0
    assert "precision=" in capsys.readouterr().out


def test_serve_replay_streams_columnar_input(store_path, tmp_path, capsys):
    model = tmp_path / "model.json"
    rc = main(["train", str(store_path), "--model", str(model)])
    assert rc == 0
    capsys.readouterr()
    rc = main([
        "serve-replay", str(store_path), "--model", str(model),
        "--chunk", "128", "--emit-metrics", str(tmp_path / "m.json"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "serve-replay:" in out
    doc = json.loads((tmp_path / "m.json").read_text())
    spans = [s["name"] for s in doc.get("spans", [])]
    assert "serve.replay" in spans


def test_serve_replay_says_jobs_are_ignored_on_columnar_input(
    store_path, tmp_path, capsys
):
    model = tmp_path / "model.json"
    assert main(["train", str(store_path), "--model", str(model)]) == 0
    capsys.readouterr()
    base = ["serve-replay", str(store_path), "--model", str(model), "--chunk", "128"]
    assert main(base + ["--jobs", "2"]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--jobs 2 ignored" in err and "chunks of 128 events" in err
    for jobs in ([], ["--jobs", "1"]):
        assert main(base + jobs) == 0
        assert "ignored" not in capsys.readouterr().err
