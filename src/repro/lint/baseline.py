"""Baseline file: pre-existing lint debt that must not block CI.

A baseline is a JSON document listing finding fingerprints (see
:attr:`repro.lint.findings.Finding.fingerprint`) that are acknowledged
debt.  ``repro lint`` partitions findings into *new* (fail the run) and
*baselined* (reported, never failing); ``--update-baseline`` rewrites
the file from the current findings, which is how debt is ratcheted
down — re-running it after fixes shrinks the file and a regression can
never silently re-enter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.lint.findings import Finding

_VERSION = 1


@dataclass(frozen=True)
class Baseline:
    """Known-debt fingerprints plus their recorded context."""

    fingerprints: frozenset[str]
    path: Path | None = None

    def __contains__(self, finding: Finding) -> bool:
        return finding.fingerprint in self.fingerprints

    @classmethod
    def empty(cls) -> "Baseline":
        return cls(fingerprints=frozenset())


def load_baseline(path: Path) -> Baseline:
    """Read a baseline file (an absent file is an empty baseline).

    Raises:
        ValueError: an unknown version, or no ``findings`` list (the
            format :func:`write_baseline` writes).
    """
    if not path.is_file():
        return Baseline(fingerprints=frozenset(), path=path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("version") != _VERSION:
        raise ValueError(
            f"unsupported baseline version {data.get('version')!r} in {path}"
        )
    findings = data.get("findings")
    if not isinstance(findings, list):
        raise ValueError(f"baseline {path} has no 'findings' list")
    prints = frozenset(str(entry["fingerprint"]) for entry in findings)
    return Baseline(fingerprints=prints, path=path)


def write_baseline(path: Path, findings: list[Finding]) -> None:
    """Write the current findings as the new acknowledged debt."""
    payload = {
        "version": _VERSION,
        "findings": [
            {
                "fingerprint": f.fingerprint,
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "message": f.message,
            }
            for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule))
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
