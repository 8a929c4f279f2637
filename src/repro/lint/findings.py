"""Finding records produced by lint rules.

A :class:`Finding` pins one rule violation to a ``file:line`` location
with the rule id, a human message, and a fix hint.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    Attributes:
        rule: registered rule id (e.g. ``no-global-rng``).
        path: repo-relative posix path of the offending file.
        line: 1-based line number.
        col: 0-based column offset.
        message: what is wrong, specifically.
        hint: how to fix it (shown alongside the message).
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def format(self) -> str:
        """``path:line:col: [rule] message (hint: ...)`` for terminals."""
        text = f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }
