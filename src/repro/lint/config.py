"""Per-path lint configuration.

The defaults below encode this repository's conventions — which modules
are probe hot paths, which functions are registered workspace kernels,
which directories must never touch the wall clock.  They are the one
place these lists live; the fixture tests retarget the rules at
synthetic files by passing their own :class:`LintConfig`.

All path entries are posix-style and matched as *suffixes* of the
scanned file's normalized path, so the linter behaves identically from
the repo root, from ``src/``, or from an absolute invocation.
"""

from __future__ import annotations

from dataclasses import dataclass


def _norm(path: str) -> str:
    return path.replace("\\", "/").strip("/")


@dataclass(frozen=True)
class LintConfig:
    """Repo-aware knobs consumed by the rules.

    Attributes:
        hot_path_modules: files under the ``dtype-discipline`` rule
            (allocations need explicit dtypes, ``astype`` needs
            ``copy=False``).
        kernel_functions: ``path.py::Qual.name`` entries registered as
            zero-allocation workspace kernels; a ``# repro-lint: kernel``
            marker comment on the ``def`` line registers one inline.
        wallclock_dirs: directories whose modules may not read host time
            (the virtual-time contract).
    """

    hot_path_modules: tuple[str, ...] = (
        "repro/core/engine.py",
        "repro/core/cache.py",
        "repro/cluster/node.py",
        "repro/lsh/alsh.py",
    )
    kernel_functions: tuple[str, ...] = (
        "repro/core/cache.py::LookupWorkspace.scores_into",
        "repro/core/cache.py::StackLayout.step",
    )
    wallclock_dirs: tuple[str, ...] = (
        "repro/sim",
        "repro/cluster",
    )

    # ------------------------------------------------------------------
    # Path matching
    # ------------------------------------------------------------------

    def is_hot_path(self, rel_path: str) -> bool:
        rel = _norm(rel_path)
        return any(rel.endswith(_norm(m)) for m in self.hot_path_modules)

    def is_wallclock_banned(self, rel_path: str) -> bool:
        padded = "/" + _norm(rel_path)
        return any("/" + _norm(d) + "/" in padded for d in self.wallclock_dirs)

    def kernel_qualnames(self, rel_path: str) -> set[str]:
        """Registered kernel qualnames applying to one file."""
        rel = _norm(rel_path)
        out: set[str] = set()
        for entry in self.kernel_functions:
            path_part, sep, qual = entry.partition("::")
            if sep and qual and rel.endswith(_norm(path_part)):
                out.add(qual)
        return out

