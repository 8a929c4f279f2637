"""The lint driver: walk files, parse, apply rules, filter, report.

:func:`lint_paths` is the programmatic entry point (the ``repro lint``
CLI and the test suite both call it):

1. collect ``.py`` files under the given paths (skipping caches and
   hidden directories), parse each once;
2. run every rule over each file;
3. set aside findings covered by an inline
   ``# repro-lint: disable=<rule> -- <justification>`` on the offending
   or preceding line as *suppressed*; every other finding fails the run.

Paths inside findings are repo-relative (relative to the nearest
ancestor of the scan root containing ``pyproject.toml`` or ``.git``,
else to the scan root itself), so a report reads the same regardless of
the invocation directory.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, load_all_rules
from repro.lint.rules.hygiene import SUPPRESS_PATTERN

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "node_modules"}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & _SKIP_DIRS:
                continue
            if any(p.startswith(".") and p not in (".", "..")
                   for p in candidate.parts):
                continue
            yield candidate


def find_repo_root(start: Path) -> Path:
    """Nearest ancestor holding pyproject.toml or .git (else ``start``)."""
    start = start.resolve()
    base = start if start.is_dir() else start.parent
    for directory in (base, *base.parents):
        if (directory / "pyproject.toml").is_file() or (
            directory / ".git"
        ).exists():
            return directory
    return base


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_file(path: Path, rel: str, config: LintConfig) -> FileContext | None:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return None
    return FileContext(rel_path=rel, source=source, tree=tree, config=config)


def _suppressions(ctx: FileContext) -> dict[int, frozenset[str]]:
    """Line -> suppressed-rule-id set for justified inline suppressions.

    Unjustified suppressions are deliberately not honoured — they show
    up as ``suppression-justification`` findings instead.
    """
    out: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(ctx.lines, start=1):
        match = SUPPRESS_PATTERN.search(text)
        if match is None:
            continue
        if not (match.group(2) or "").strip():
            continue
        rules = frozenset(
            r.strip() for r in match.group(1).split(",") if r.strip()
        )
        out[lineno] = rules
    return out


def _is_suppressed(
    finding: Finding, suppressions: dict[int, frozenset[str]]
) -> bool:
    if finding.rule == "suppression-justification":
        return False  # the meta-rule cannot be suppressed
    for line in (finding.line, finding.line - 1):
        rules = suppressions.get(line)
        if rules and (finding.rule in rules or "all" in rules):
            return True
    return False


def lint_paths(
    paths: Sequence[Path | str],
    config: LintConfig | None = None,
    rule_ids: Sequence[str] | None = None,
    root: Path | None = None,
) -> LintReport:
    """Lint the given files/directories and return a :class:`LintReport`.

    Args:
        paths: files or directories to scan.
        config: lint configuration (default: :class:`LintConfig`).
        rule_ids: restrict to a subset of rule ids (default: all).
        root: repo root for path relativization (default: discovered).
    """
    resolved = [Path(p) for p in paths]
    if not resolved:
        raise ValueError("no paths to lint")
    if root is None:
        root = find_repo_root(resolved[0])
    if config is None:
        config = LintConfig()

    registry = load_all_rules()
    if rule_ids is None:
        rules: list[Rule] = list(registry.values())
    else:
        unknown = [r for r in rule_ids if r not in registry]
        if unknown:
            raise KeyError(f"unknown rule ids: {unknown}")
        rules = [registry[r] for r in rule_ids]

    report = LintReport()
    contexts: list[FileContext] = []
    raw: list[Finding] = []
    for path in iter_python_files(resolved):
        rel = _rel_path(path, root)
        ctx = _parse_file(path, rel, config)
        report.files_scanned += 1
        if ctx is None:
            raw.append(
                Finding(
                    rule="syntax-error",
                    path=rel,
                    line=1,
                    col=0,
                    message="file does not parse; rules were not applied",
                    hint="fix the syntax error",
                )
            )
            continue
        contexts.append(ctx)
        for rule in rules:
            raw.extend(rule.check(ctx))

    suppression_maps = {
        ctx.rel_path: _suppressions(ctx) for ctx in contexts
    }
    for finding in sorted(raw, key=lambda f: (f.path, f.line, f.col, f.rule)):
        if _is_suppressed(
            finding, suppression_maps.get(finding.path, {})
        ):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report
