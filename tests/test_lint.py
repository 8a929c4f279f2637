"""Tests for the ``repro lint`` static invariant checker.

Each rule is exercised against a positive (violating) and negative
(clean) fixture under ``tests/lint_fixtures/``; on top of that the suite
pins the inline suppressions, the CLI exit codes and output, and — the
point of the whole exercise — that ``src/`` itself lints clean.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_paths, load_all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

#: Configs retargeting path-scoped rules at the fixture files.
HOT_FIXTURES = LintConfig(
    hot_path_modules=(
        "tests/lint_fixtures/dtype_bad.py",
        "tests/lint_fixtures/dtype_good.py",
        "tests/lint_fixtures/hygiene_bad.py",
    )
)
WALLCLOCK_FIXTURES = LintConfig(wallclock_dirs=("tests/lint_fixtures",))


def run_fixture(
    filename: str,
    config: LintConfig | None = None,
    rule_ids: list[str] | None = None,
):
    return lint_paths(
        [FIXTURES / filename],
        config=config,
        root=REPO_ROOT,
        rule_ids=rule_ids,
    )


def finding_rules(report) -> list[str]:
    return sorted(f.rule for f in report.findings)


# ----------------------------------------------------------------------
# Per-rule fixtures: positive fires, negative stays quiet
# ----------------------------------------------------------------------

def test_no_global_rng_fires_on_every_spelling():
    report = run_fixture("rng_bad.py")
    assert finding_rules(report) == ["no-global-rng"] * 4
    messages = " ".join(f.message for f in report.findings)
    assert "np.random.seed" in messages


def test_no_global_rng_quiet_on_seeded_generators():
    assert run_fixture("rng_good.py").findings == []


def test_dtype_discipline_fires_on_hot_path():
    # Two implicit-float64 constructors plus three copying casts — one
    # float cast and two quantized-buffer casts (int8 codes, staging).
    report = run_fixture("dtype_bad.py", config=HOT_FIXTURES)
    assert finding_rules(report) == ["dtype-discipline"] * 5


def test_dtype_discipline_scoped_to_hot_path_modules():
    # Same violating file, but not configured as a hot path: quiet.
    assert run_fixture("dtype_bad.py").findings == []


def test_dtype_discipline_quiet_on_explicit_dtypes():
    assert run_fixture("dtype_good.py", config=HOT_FIXTURES).findings == []


def test_zero_alloc_kernel_fires_inside_marked_kernel_only():
    report = run_fixture("kernel_bad.py")
    assert finding_rules(report) == ["zero-alloc-kernel"] * 2
    # The unregistered helper's np.zeros is not flagged.
    assert all("plain_helper" not in f.message for f in report.findings)


def test_zero_alloc_kernel_quiet_on_out_parameter_kernel():
    assert run_fixture("kernel_good.py").findings == []


def test_zero_alloc_kernel_reports_an_entry_naming_no_function():
    # A kernel renamed or merged away must take its registration along:
    # an entry that resolves to nothing would check nothing, silently.
    fixture = "tests/lint_fixtures/kernel_stale.py"
    config = LintConfig(
        kernel_functions=(
            f"{fixture}::Session._fold",
            f"{fixture}::Session._fold_block",
            "some/other_file.py::never_linted_here",
        )
    )
    report = run_fixture("kernel_stale.py", config=config)
    assert finding_rules(report) == ["zero-alloc-kernel"]
    assert "Session._fold_block" in report.findings[0].message


def test_wallclock_fires_in_configured_dirs():
    report = run_fixture("wallclock_bad.py", config=WALLCLOCK_FIXTURES)
    assert finding_rules(report) == ["no-wallclock-in-sim"] * 4


def test_wallclock_quiet_outside_configured_dirs():
    assert run_fixture("wallclock_bad.py").findings == []


def test_wallclock_quiet_on_virtual_time_code():
    assert run_fixture("wallclock_good.py", config=WALLCLOCK_FIXTURES).findings == []


def test_hygiene_rules_fire():
    report = run_fixture("hygiene_bad.py")
    assert finding_rules(report) == [
        "mutable-default",
        "mutable-default",
        "shape-comment-drift",
        "suppression-justification",
    ]


def test_hygiene_quiet_on_clean_file():
    assert run_fixture("hygiene_good.py").findings == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

def test_justified_suppression_moves_finding_to_suppressed():
    report = run_fixture("suppress_ok.py")
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["no-global-rng"]


def test_bare_suppression_is_not_honoured():
    # hygiene_bad.py tries to hide a dtype violation behind a
    # justification-less disable comment; with the file configured as a
    # hot path the violation must still surface as a finding.
    report = run_fixture("hygiene_bad.py", config=HOT_FIXTURES)
    assert "dtype-discipline" in finding_rules(report)
    assert report.suppressed == []


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def test_syntax_error_becomes_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n", encoding="utf-8")
    report = lint_paths([bad], config=LintConfig(), root=tmp_path)
    assert finding_rules(report) == ["syntax-error"]


def test_unknown_rule_id_rejected():
    with pytest.raises(KeyError):
        run_fixture("rng_good.py", rule_ids=["no-such-rule"])


def test_rule_filter_restricts_scan():
    report = run_fixture("hygiene_bad.py", rule_ids=["mutable-default"])
    assert finding_rules(report) == ["mutable-default"] * 2


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_registry_contains_the_documented_rules():
    assert set(load_all_rules()) >= {
        "no-global-rng",
        "dtype-discipline",
        "zero-alloc-kernel",
        "no-wallclock-in-sim",
        "mutable-default",
        "shape-comment-drift",
        "suppression-justification",
    }


# ----------------------------------------------------------------------
# The repo itself
# ----------------------------------------------------------------------

def test_src_is_clean_modulo_checked_in_baseline():
    report = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    assert report.ok, "\n".join(f.format() for f in report.findings)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def run_cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


def test_cli_exit_codes_and_json():
    clean = run_cli(str(FIXTURES / "rng_good.py"))
    assert clean.returncode == 0, clean.stderr

    dirty = run_cli(str(FIXTURES / "rng_bad.py"), "--json")
    assert dirty.returncode == 1
    payload = json.loads(dirty.stdout)
    assert payload["ok"] is False
    assert len(payload["findings"]) == 4

    missing = run_cli(str(FIXTURES / "no_such_file.py"))
    assert missing.returncode == 2


def test_cli_unknown_rule_is_a_usage_error():
    result = run_cli(str(FIXTURES / "rng_good.py"), "--rules", "no-global-rng,bogus,nope")
    assert result.returncode == 2
    assert result.stderr.strip() == "unknown rule id(s): bogus, nope"
    assert result.stdout == ""


def test_cli_list_rules():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    assert "no-global-rng" in result.stdout
    assert "zero-alloc-kernel" in result.stdout


def test_cli_output_lists_each_finding_and_two_counts():
    payload = json.loads(run_cli(str(FIXTURES / "rng_bad.py"), "--json").stdout)
    assert sorted(payload) == ["files_scanned", "findings", "ok", "suppressed"]
    assert payload["ok"] is False
    for finding in payload["findings"]:
        assert sorted(finding) == ["col", "hint", "line", "message", "path", "rule"]
        assert finding["rule"] == "no-global-rng"
        assert finding["path"] == "tests/lint_fixtures/rng_bad.py"

    text = run_cli(str(FIXTURES / "rng_bad.py"))
    assert text.returncode == 1
    summary = text.stderr.strip().splitlines()[-1]
    assert summary == (
        "repro lint: FAILED (1 file(s) scanned: 4 finding(s), 0 suppressed)"
    )
    clean = run_cli(str(FIXTURES / "suppress_ok.py"))
    assert clean.returncode == 0, clean.stderr
    assert clean.stdout.strip().splitlines()[-1] == (
        "repro lint: clean (1 file(s) scanned: 0 finding(s), 1 suppressed)"
    )
