"""repro lint: a repo-aware static invariant checker.

The serving-path performance and determinism guarantees of this
repository rest on conventions the interpreter never checks — hot-path
kernels must not allocate, centroid math must stay in the configured
lookup dtype, randomness must flow through seeded Generators, the
cluster's virtual-time model must never read the host clock.  This
package enforces them statically: an AST rule framework
(:mod:`repro.lint.rules`), a driver with inline suppressions
(:mod:`repro.lint.runner`), and the ``repro lint`` CLI subcommand.
``src/repro/lint/README.md`` documents how to add a rule.
"""

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.runner import LintReport, lint_paths
from repro.lint.rules import RULES, Rule, load_all_rules

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "RULES",
    "Rule",
    "lint_paths",
    "load_all_rules",
]
