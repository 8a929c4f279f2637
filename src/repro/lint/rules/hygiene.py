"""Hygiene rules: mutable defaults, shape-comment drift, suppressions.

``mutable-default`` is the classic: a ``def f(x, acc=[])`` default is
created once and shared across calls — in a codebase whose clients and
nodes are long-lived objects processing millions of frames, a shared
accumulator default is state leaking between runs.

``shape-comment-drift`` guards the SoA convention: buffer allocations
carry trailing shape comments (``ws.floats(...)  # (B, d)``) that
readers rely on; when a constructor's literal shape tuple and its
trailing comment disagree in arity, one of them is lying.

``suppression-justification`` makes lint debt auditable: an inline
``# repro-lint: disable=<rule>`` is honoured only with a
``-- <justification>`` tail, and a bare one is itself a finding.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, iter_calls, register

_MUTABLE_CALLS = frozenset({"list", "dict", "set"})
_SHAPE_CONSTRUCTORS = frozenset(
    {"numpy.zeros", "numpy.empty", "numpy.ones", "numpy.full"}
)
_SHAPE_COMMENT = re.compile(r"#\s*(?:shape:?\s*)?\(([^()]+)\)\s*$")

SUPPRESS_PATTERN = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+?)(?:\s*--\s*(.*))?$"
)


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
        and not node.args
        and not node.keywords
    )


@register
class MutableDefault(Rule):
    id = "mutable-default"
    description = "forbid mutable default argument values"
    hint = "default to None and create the container inside the function"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield ctx.finding(
                        self,
                        default,
                        f"mutable default in {node.name}() is shared "
                        "across calls",
                    )


@register
class ShapeCommentDrift(Rule):
    id = "shape-comment-drift"
    description = (
        "a trailing shape comment must agree in arity with the literal "
        "shape tuple it annotates"
    )
    hint = "update the comment (or the shape) so both tell the same story"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        assert ctx.imports is not None
        for call in iter_calls(ctx.tree):
            name = ctx.imports.resolve(call.func)
            if name not in _SHAPE_CONSTRUCTORS or not call.args:
                continue
            shape = call.args[0]
            if not isinstance(shape, ast.Tuple):
                continue
            match = _SHAPE_COMMENT.search(ctx.line_text(call.lineno))
            if not match:
                continue
            commented = [p for p in match.group(1).split(",") if p.strip()]
            if len(commented) != len(shape.elts):
                yield ctx.finding(
                    self,
                    call,
                    f"shape comment claims {len(commented)} dims but the "
                    f"literal shape has {len(shape.elts)}",
                )


@register
class SuppressionJustification(Rule):
    id = "suppression-justification"
    description = (
        "inline lint suppressions require a `-- justification` tail"
    )
    hint = (
        "write `# repro-lint: disable=<rule-id> -- <why this is safe>`"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for lineno, text in enumerate(ctx.lines, start=1):
            match = SUPPRESS_PATTERN.search(text)
            if match is None:
                continue
            justification = (match.group(2) or "").strip()
            if not justification:
                yield Finding(
                    rule=self.id,
                    path=ctx.rel_path,
                    line=lineno,
                    col=max(0, text.find("#")),
                    message=(
                        "suppression without justification (nothing "
                        "after `--`)"
                    ),
                    hint=self.hint,
                )
