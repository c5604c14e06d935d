"""Exit codes and report output of ``python -m repro lint``."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import repro.analysis.cli as cli_module
from repro.analysis.cli import cmd_lint

from tests.analysis.util import build

REPO_ROOT = Path(__file__).resolve().parents[2]

SEEDED = {
    "fixpkg/high/solver.py": """\
        import time


        def stamp():
            return time.time()
        """,
}

CLEAN = {"fixpkg/low/base.py": "VALUE = 1\n"}


def namespace(**overrides) -> argparse.Namespace:
    settings = dict(
        rule=None,
        json_path=None,
        effects_json_path=None,
        domains_json_path=None,
        rule_fixture_dir=None,
        baseline=None,
        write_baseline=False,
        update_lock=False,
        list_rules=False,
    )
    settings.update(overrides)
    return argparse.Namespace(**settings)


def point_at(monkeypatch, config):
    monkeypatch.setattr(cli_module, "default_config", lambda: config)


def test_seeded_fixture_exits_nonzero(tmp_path, monkeypatch, capsys):
    _, config = build(tmp_path, SEEDED)
    point_at(monkeypatch, config)
    assert cmd_lint(namespace()) == 1
    out = capsys.readouterr().out
    assert "wall-clock read time.time()" in out
    assert out.startswith("fixpkg/high/solver.py:")


def test_clean_fixture_exits_zero(tmp_path, monkeypatch, capsys):
    _, config = build(tmp_path, CLEAN)
    point_at(monkeypatch, config)
    assert cmd_lint(namespace()) == 0
    assert "ok: 0 finding(s)" in capsys.readouterr().out


def test_unknown_rule_exits_two(tmp_path, monkeypatch, capsys):
    _, config = build(tmp_path, CLEAN)
    point_at(monkeypatch, config)
    assert cmd_lint(namespace(rule=["no-such-rule"])) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_json_report_is_written(tmp_path, monkeypatch):
    _, config = build(tmp_path, SEEDED)
    point_at(monkeypatch, config)
    report = tmp_path / "lint-report.json"
    assert cmd_lint(namespace(json_path=str(report))) == 1
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["summary"]["findings"] == 1
    [finding] = payload["findings"]
    assert finding["rule"] == "determinism"
    assert finding["path"] == "fixpkg/high/solver.py"
    assert finding["fingerprint"].startswith("determinism::")


def test_json_report_is_fingerprint_sorted_with_rule_metadata(
    tmp_path, monkeypatch
):
    seeded = dict(SEEDED)
    seeded["fixpkg/high/other.py"] = """\
        import time


        def later():
            return time.time_ns()
        """
    _, config = build(tmp_path, seeded)
    point_at(monkeypatch, config)
    report = tmp_path / "lint-report.json"
    assert cmd_lint(namespace(json_path=str(report))) == 1
    payload = json.loads(report.read_text(encoding="utf-8"))
    fingerprints = [f["fingerprint"] for f in payload["findings"]]
    assert fingerprints == sorted(fingerprints) and len(fingerprints) == 2
    rules = payload["rules"]
    assert [r["name"] for r in rules] == sorted(r["name"] for r in rules)
    assert all(r["description"] for r in rules)
    assert {"determinism", "effects.purity-propagation"} <= {
        r["name"] for r in rules
    }


def test_rule_glob_selects_effects_family(tmp_path, monkeypatch, capsys):
    _, config = build(tmp_path, SEEDED)
    point_at(monkeypatch, config)
    # The seeded wall-clock violation is a determinism finding, so the
    # effects-only run passes while the full run fails.
    assert cmd_lint(namespace(rule=["effects.*"])) == 0
    assert "4 rule(s)" in capsys.readouterr().out


def test_effects_json_dump(tmp_path, monkeypatch):
    _, config = build(
        tmp_path,
        {
            "fixpkg/high/calc.py": """\
                def double(x):
                    return 2 * x


                def record(log, x):
                    log.append(x)
                    return x
                """,
        },
    )
    point_at(monkeypatch, config)
    dump = tmp_path / "effects.json"
    assert cmd_lint(namespace(effects_json_path=str(dump))) == 0
    payload = json.loads(dump.read_text(encoding="utf-8"))
    by_name = {f["function"]: f for f in payload["functions"]}
    assert by_name["fixpkg.high.calc.double"]["pure"] is True
    assert by_name["fixpkg.high.calc.record"]["effects"] == [
        "mutates-arg:log"
    ]
    assert payload["totals"]["functions"] == len(payload["functions"])
    assert payload["totals"]["mutates-arg"] == 1


def test_domains_json_dump(tmp_path, monkeypatch):
    _, config = build(
        tmp_path,
        {
            "fixpkg/high/ids.py": """\
                # repro-lint: domain[returns=intern:demo] the mint
                def intern(text):
                    return 0


                def consumer():
                    return intern("ab")
                """,
        },
    )
    point_at(monkeypatch, config)
    dump = tmp_path / "domains.json"
    assert cmd_lint(namespace(domains_json_path=str(dump))) == 0
    payload = json.loads(dump.read_text(encoding="utf-8"))
    assert payload["pins"] == 1
    assert payload["pin_errors"] == []
    by_name = {f["function"]: f for f in payload["functions"]}
    assert by_name["fixpkg.high.ids.intern"]["returns"] == "intern:demo"
    # The consumer's return domain is inferred, not pinned.
    assert by_name["fixpkg.high.ids.consumer"]["returns"] == "intern:demo"


def test_check_rule_fixtures_passes_on_this_repo(tmp_path, monkeypatch, capsys):
    _, config = build(tmp_path, CLEAN)
    config = dataclasses.replace(config, src_root=REPO_ROOT / "src")
    point_at(monkeypatch, config)
    assert cmd_lint(namespace(rule_fixture_dir="")) == 0
    assert "every rule has a fixture test" in capsys.readouterr().out


def test_check_rule_fixtures_flags_untested_rules(
    tmp_path, monkeypatch, capsys
):
    _, config = build(tmp_path, CLEAN)
    point_at(monkeypatch, config)
    empty = tmp_path / "no-tests"
    empty.mkdir()
    assert cmd_lint(namespace(rule_fixture_dir=str(empty))) == 1
    err = capsys.readouterr().err
    assert "has no fixture test" in err
    assert "domains.universe-escape" in err


def test_baseline_roundtrip(tmp_path, monkeypatch, capsys):
    _, config = build(tmp_path, SEEDED)
    point_at(monkeypatch, config)
    baseline = tmp_path / "baseline.json"
    assert cmd_lint(
        namespace(write_baseline=True, baseline=str(baseline))
    ) == 0
    capsys.readouterr()
    assert cmd_lint(namespace(baseline=str(baseline))) == 0
    assert "1 baselined" in capsys.readouterr().out


def test_list_rules(tmp_path, monkeypatch, capsys):
    _, config = build(tmp_path, CLEAN)
    point_at(monkeypatch, config)
    assert cmd_lint(namespace(list_rules=True)) == 0
    out = capsys.readouterr().out
    for rule in (
        "cache-soundness",
        "concurrency.atomic-counters",
        "concurrency.fork-safety",
        "concurrency.guarded-by",
        "concurrency.shared-state-race",
        "determinism",
        "dispatch-exhaustiveness",
        "domains.bitset-universe",
        "domains.no-cross-mix",
        "domains.slot-discipline",
        "domains.universe-escape",
        "effects.assignment-purity",
        "effects.memo-key-completeness",
        "effects.purity-propagation",
        "effects.worker-isolation",
        "frozen-ast",
        "import-layering",
        "lru-cache-purity",
    ):
        assert rule in out


ALLOW_PIN = re.compile(r"repro-lint:\s*allow\[([^\]]+)\]")


def allow_pins(src_root: Path):
    """(relpath, line, rules, stands alone) for every allow comment."""
    for path in sorted(src_root.rglob("*.py")):
        relpath = path.relative_to(src_root).as_posix()
        with tokenize.open(path) as handle:
            for token in tokenize.generate_tokens(handle.readline):
                if token.type != tokenize.COMMENT:
                    continue
                match = ALLOW_PIN.search(token.string)
                if match is None:
                    continue
                rules = {rule.strip() for rule in match.group(1).split(",")}
                alone = not token.line[: token.start[1]].strip()
                yield relpath, token.start[0], rules, alone


def test_repo_head_is_lint_clean(tmp_path):
    """The committed tree itself must pass `python -m repro lint`, and
    every inline allow pin in it must suppress a finding."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    report = tmp_path / "lint-report.json"
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--json", str(report)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "ok: 0 finding(s)" in result.stdout
    suppressed = json.loads(report.read_text(encoding="utf-8"))["suppressed"]
    stale = []
    for relpath, line, rules, alone in allow_pins(REPO_ROOT / "src"):
        covered = (line, line + 1) if alone else (line,)
        if not any(
            finding["path"] == relpath
            and finding["line"] in covered
            and (finding["rule"] in rules or "*" in rules)
            for finding in suppressed
        ):
            stale.append(f"{relpath}:{line} allow[{', '.join(sorted(rules))}]")
    assert stale == [], "allow pins that suppress no finding"
