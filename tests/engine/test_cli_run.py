"""The ``python -m repro run`` command, driven in-process."""

import json

import pytest

from repro.__main__ import main


def test_run_only_e01_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "run",
            "--only", "E01",
            "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "E01" in out and "1 ok" in out

    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["engine"]["jobs"] == 1
    assert payload["engine"]["tasks"] == {"ok": 1, "error": 0, "skipped": 0}
    assert payload["tasks"][0]["task"] == "E01"
    assert payload["tasks"][0]["result"]["passed"] is True
    assert "hits" in payload["cache"] and "misses" in payload["cache"]
    assert "registered" in payload["lru_caches"]


def test_run_warm_cache_hits(tmp_path, capsys):
    args = [
        "run",
        "--only", "E01",
        "--jobs", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--json", str(tmp_path / "report.json"),
    ]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert "[hit] cached" in capsys.readouterr().out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["cache"]["hits"] == 1


def test_run_no_cache(tmp_path, capsys):
    code = main(
        [
            "run",
            "--only", "E01",
            "--jobs", "1",
            "--no-cache",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(tmp_path / "report.json"),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["cache"]["bypassed"] >= 1
    assert payload["tasks"][0]["cache"] == "bypass"
    assert not any((tmp_path / "cache").rglob("*.json"))


def test_run_only_is_case_insensitive_for_experiments(tmp_path):
    code = main(
        [
            "run",
            "--only", "e01",
            "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(tmp_path / "report.json"),
        ]
    )
    assert code == 0


def test_run_unknown_only_exits(tmp_path):
    with pytest.raises(SystemExit, match="unknown task"):
        main(["run", "--only", "E99", "--cache-dir", str(tmp_path)])


@pytest.mark.parametrize("flag", ["--jobs", "--shards"])
def test_run_width_below_one_is_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["run", "--only", "E01", flag, "0"])
    assert exited.value.code == 2
    assert f"argument {flag}: must be at least 1, got 0" in (
        capsys.readouterr().err
    )


def test_run_list(capsys):
    assert main(["run", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("E01", "E23", "prim/pow2-pairs", "prim/witness/anbn"):
        assert name in out
    # Dependency edges are rendered.
    assert "←" in out
