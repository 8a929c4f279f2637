"""``zero-alloc-kernel``: registered workspace kernels may not allocate.

The steady-state probe path owes its throughput to writing every
intermediate into :class:`~repro.core.cache.LookupWorkspace` pools with
``out=``; a single numpy constructor re-introduced into a kernel
re-allocates ``batch x n_entries`` scratch on every probe and the
zero-allocation property degrades without any test failing.  Functions
are registered as kernels in the lint config
(``path.py::Class.method``) or inline with a ``# repro-lint: kernel``
marker comment on the ``def`` line (a configured entry naming no
function of its file is itself a finding); inside them this rule bans the
allocating numpy constructors and the concatenation helpers
(``np.concatenate`` / ``np.stack`` / friends), which have no ``out=``
form.  Small *per-row output* arrays (``.copy()`` of an ``(n,)`` view,
fancy-indexed id gathers) are the documented exception and are not
flagged.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.rules import (
    FileContext,
    Rule,
    iter_calls,
    register,
    walk_functions,
)

_BANNED = frozenset(
    {
        "numpy.zeros",
        "numpy.empty",
        "numpy.ones",
        "numpy.full",
        "numpy.array",
        "numpy.arange",
        "numpy.eye",
        "numpy.linspace",
        "numpy.zeros_like",
        "numpy.empty_like",
        "numpy.ones_like",
        "numpy.full_like",
        "numpy.concatenate",
        "numpy.stack",
        "numpy.vstack",
        "numpy.hstack",
        "numpy.column_stack",
        "numpy.tile",
        "numpy.repeat",
    }
)

_MARKER = "# repro-lint: kernel"


@register
class ZeroAllocKernel(Rule):
    id = "zero-alloc-kernel"
    description = (
        "registered workspace kernels may not call allocating numpy "
        "constructors or concatenate/stack"
    )
    hint = (
        "take scratch from the LookupWorkspace pools (ws.floats/ints/"
        "bools/arange) and write results with out=; if the allocation "
        "is a once-per-session init, move it out of the kernel"
    )

    def _is_marked(self, ctx: FileContext, line: int) -> bool:
        return _MARKER in ctx.line_text(line)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        registered = ctx.config.kernel_qualnames(ctx.rel_path)
        assert ctx.imports is not None
        unresolved = set(registered)
        for qualname, func in walk_functions(ctx.tree):
            unresolved.discard(qualname)
            if qualname not in registered and not (
                self._is_marked(ctx, func.lineno)
                or self._is_marked(ctx, func.lineno - 1)
            ):
                continue
            for call in iter_calls(func):
                name = ctx.imports.resolve(call.func)
                if name in _BANNED:
                    short = name.split(".")[-1]
                    yield ctx.finding(
                        self,
                        call,
                        f"np.{short} allocates inside workspace kernel "
                        f"{qualname}",
                    )
        # A renamed or merged kernel must not drop out of the check
        # silently: its registration has to follow it.
        for qualname in sorted(unresolved):
            yield ctx.finding(
                self,
                ctx.tree,
                f"registered workspace kernel {qualname} is not defined "
                f"in {ctx.rel_path}",
                hint=(
                    "point the kernel_functions entry at the function "
                    "that now holds the kernel, or drop it"
                ),
            )
