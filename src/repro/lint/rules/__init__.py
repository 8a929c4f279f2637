"""Rule registry and the shared AST analysis context.

Every rule is a subclass of :class:`Rule` registered through
:func:`register` and implements :meth:`Rule.check` over one file's
:class:`FileContext`.

The :class:`ImportTracker` resolves attribute chains to canonical dotted
names through the file's imports — ``np.random.seed`` and
``from numpy import random as r; r.seed`` both resolve to
``numpy.random.seed`` — so rules match *what is called*, not how the
caller spelled it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.findings import Finding


class ImportTracker:
    """Maps local names to canonical dotted module paths."""

    def __init__(self, tree: ast.AST) -> None:
        self._names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    self._names[alias.asname or root] = (
                        alias.name if alias.asname else root
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue  # relative imports: out of scope
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self._names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted name of a Name/Attribute chain, or ``None``."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        canonical = self._names.get(node.id)
        if canonical is None:
            return None
        parts.append(canonical)
        return ".".join(reversed(parts))


@dataclass
class FileContext:
    """Everything a file-scoped rule needs about one source file."""

    rel_path: str
    source: str
    tree: ast.Module
    config: LintConfig
    lines: list[str] = field(default_factory=list)
    imports: ImportTracker | None = None

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()
        if self.imports is None:
            self.imports = ImportTracker(self.tree)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.id,
            path=self.rel_path,
            line=line,
            col=col,
            message=message,
            hint=hint if hint is not None else rule.hint,
        )


class Rule:
    """Base class: one named, registered invariant."""

    id: str = ""
    description: str = ""
    hint: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())


#: All registered rules by id, in registration order.
RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one rule instance to the registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    RULES[cls.id] = cls()
    return cls


def walk_functions(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield ``(qualname, def)`` for every function in a module, with
    ``Class.method`` qualnames (nested defs join with ``.``)."""

    def visit(node: ast.AST, prefix: str) -> Iterator[
        tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]
    ]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, child
                yield from visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.If, ast.Try, ast.With)):
                yield from visit(child, prefix)

    yield from visit(tree, "")


def iter_calls(node: ast.AST) -> Iterator[ast.Call]:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def load_all_rules() -> dict[str, Rule]:
    """Import every rule module (idempotent) and return the registry."""
    from repro.lint.rules import (  # noqa: F401  (import-for-registration)
        dtype,
        hygiene,
        kernel,
        rng,
        wallclock,
    )

    return RULES
