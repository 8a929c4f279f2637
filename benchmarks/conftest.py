"""Benchmark-suite helpers.

Each benchmark runs one paper experiment exactly once (via
``benchmark.pedantic(..., rounds=1, iterations=1)``), prints the
reproduced table/series, and archives it under ``benchmarks/results/`` so
the output survives pytest's capture regardless of ``-s``.

Archived tables carry nothing about the host that produced them: they
are seeded and byte-identical across hosts, and a file is rewritten only
when its content changed, so a run leaves the tracked tables untouched.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def report():
    """Callable(title, text) that prints and archives a result table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        print("\n" + text + "\n")
        path = RESULTS_DIR / f"{name}.txt"
        content = text + "\n"
        if not path.exists() or path.read_text() != content:
            path.write_text(content)

    return _report
