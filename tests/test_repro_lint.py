"""Lint-pack tests: seeded fixtures report exactly, current tree is clean.

Every fixture under ``tests/lint_fixtures/`` marks its seeded violations
with a trailing ``# seed:RLxxx`` comment (or ``# seed-next:RLxxx`` on
the preceding line when the violation line cannot carry extra comment
text, as with suppression clauses).  The tests parse those markers and
assert the tool reports exactly that multiset of ``(file, rule, line)``
findings — no more, no fewer.
"""

import json
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

from tools.repro_lint import main, run_lint
from tools.repro_lint.contracts import DEFAULT_CONTRACTS

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "tests" / "lint_fixtures"

_SEED_RE = re.compile(r"#\s*seed(?P<on_next_line>-next)?:(?P<rule>RL\d{3})")

#: the fixture tree re-declares every path-scoped registry so RL004 and
#: RL007 run against fixture files instead of src/repro
FIXTURE_CONTRACTS = replace(
    DEFAULT_CONTRACTS,
    gate_registry_module="tests/lint_fixtures/fixture_exempt.py",
    wall_clock_modules=("tests/lint_fixtures/fixture_exempt.py",),
    mailbox_modules=("tests/lint_fixtures/fixture_exempt.py",),
    collector_module="tests/lint_fixtures/fixture_exempt.py",
    wire_registry_module="tests/lint_fixtures/fixture_rl007_wire.py",
    wire_message_modules=("tests/lint_fixtures/fixture_rl007.py",),
    pickle_safe_classes={
        "tests/lint_fixtures/fixture_rl004.py": {
            "Missing": ("_nd",),
            "Partial": ("_nd",),
            "Good": ("_nd",),
            "Ghost": ("_nd",),
        }
    },
)


def _expected_seeds() -> Counter:
    expected: Counter = Counter()
    for path in sorted(FIXTURE_DIR.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            match = _SEED_RE.search(line)
            if match is None:
                continue
            at = lineno + 1 if match.group("on_next_line") else lineno
            expected[(path.name, match.group("rule"), at)] += 1
    return expected


def test_fixtures_report_exactly_the_seeded_findings():
    findings = run_lint([str(FIXTURE_DIR)], contracts=FIXTURE_CONTRACTS)
    reported = Counter(
        (Path(f.path).name, f.rule, f.line) for f in findings
    )
    expected = _expected_seeds()
    assert expected, "fixture seed markers went missing"
    missing = expected - reported
    extra = reported - expected
    assert not missing and not extra, (
        f"seeded-vs-reported mismatch; missing={dict(missing)} "
        f"extra={dict(extra)}"
    )


def test_every_rule_is_exercised_by_a_fixture():
    rules = {rule for _, rule, _ in _expected_seeds()}
    assert rules == {f"RL{n:03d}" for n in range(10)}


def test_exempt_fixture_stays_clean():
    findings = run_lint(
        [str(FIXTURE_DIR / "fixture_exempt.py")], contracts=FIXTURE_CONTRACTS
    )
    assert findings == []


def test_reasoned_suppression_silences_the_finding():
    findings = run_lint(
        [str(FIXTURE_DIR / "fixture_rl001.py")], contracts=FIXTURE_CONTRACTS
    )
    suppressed_lines = [
        lineno
        for lineno, line in enumerate(
            (FIXTURE_DIR / "fixture_rl001.py").read_text().splitlines(),
            start=1,
        )
        if "repro-lint: disable=RL001(" in line
    ]
    assert suppressed_lines, "fixture lost its reasoned suppression"
    assert not [f for f in findings if f.line in suppressed_lines]


def test_non_src_files_skip_src_scoped_rules(tmp_path):
    plain = tmp_path / "helper.py"
    plain.write_text("import random\nvalue = random.random()\n")
    assert run_lint([str(plain)], contracts=FIXTURE_CONTRACTS) == []


def test_current_tree_is_clean():
    findings = run_lint([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"repro-lint regressions:\n{rendered}"


def test_cli_json_output_and_exit_code(capsys):
    rc = main([str(FIXTURE_DIR / "fixture_rl006.py"), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["tool"] == "repro-lint"
    assert payload["count"] == 6
    assert {f["rule"] for f in payload["findings"]} == {"RL006"}


def test_cli_clean_exit(capsys):
    rc = main([str(REPO_ROOT / "src")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "repro-lint: clean"


def test_cli_lists_every_rule(capsys):
    rc = main(["--list-rules"])
    out = capsys.readouterr().out
    assert rc == 0
    for number in range(10):
        assert f"RL{number:03d}" in out


def test_cli_rejects_missing_paths(capsys):
    rc = main([str(REPO_ROOT / "definitely_not_here")])
    assert rc == 2
    assert "error" in capsys.readouterr().out
