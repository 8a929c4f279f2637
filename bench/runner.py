"""Run one workload and print its result in the driver's format."""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any

from bench import BENCH_DIR, ROOT, measure, rounds, serve
from bench.spec import DEFAULT_SECONDS, Metric, load_spec
from bench.system import RunResult, workdir

RESULTS_DIR = BENCH_DIR / "results"
#: Every run must end within this (the driver's own limit per run).
RUN_TIMEOUT_S = 180


def execute(workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
    """Run ``workload`` and return exactly the metrics ``BENCHMARK.json``
    declares for this kind of run.

    A traced run reports every per-layer metric on every workload; a
    layer the workload does not execute reports 0 (listed in the notes).
    A metric the spec does not declare is a bug here, not a result.
    """
    spec = load_spec()
    if workload not in spec.workloads:
        raise SystemExit(
            f"unknown workload {workload!r}; expected one of {sorted(spec.workloads)}"
        )
    module = serve if workload in serve.WORKLOADS else rounds
    with workdir() as work, measure.one_cpu():
        result, tracer = module.run(workload, seed, seconds, trace, work)
        if tracer is not None:
            tracer.dump(
                RESULTS_DIR / f"trace-{workload}-seed{seed}.json",
                {"workload": workload, "seed": seed, "seconds": seconds},
            )
    declared = [m.name for m in spec.metrics(trace)]
    undeclared = sorted(set(result.metrics) - set(declared))
    if undeclared:
        raise AssertionError(f"metrics not in BENCHMARK.json: {undeclared}")
    absent = [name for name in declared if name not in result.metrics]
    if absent and not trace:
        raise AssertionError(f"end-to-end metrics not measured: {absent}")
    if absent:
        result.notes["layers.not_on_path"] = absent
    result.metrics = {name: float(result.metrics.get(name, 0.0)) for name in declared}
    return result


def result_line(result: RunResult, metrics: tuple[Metric, ...]) -> str:
    return json.dumps(
        {
            "correct": bool(result.correct),
            "attempted": int(result.attempted),
            "failed": int(result.failed),
            "metrics": {
                m.name: {"value": result.metrics[m.name], "unit": m.unit} for m in metrics
            },
        }
    )


def print_table(workload: str, result: RunResult, metrics: tuple[Metric, ...]) -> None:
    off_path = set(result.notes.get("layers.not_on_path", ()))  # type: ignore[arg-type]
    print(f"# {workload}: correct={result.correct} attempted={result.attempted} "
          f"failed={result.failed}")
    for m in metrics:
        if m.name in off_path:
            continue
        bound = f"  (bound {m.bound:g}, {m.better} is better)" if m.bound else ""
        print(f"{m.name:34s} {result.metrics[m.name]:14.6g} {m.unit}{bound}")
    for key, value in sorted(result.notes.items()):
        if key != "layers.not_on_path":
            print(f"  note {key} = {value}")
    if off_path:
        print(f"  note {len(off_path)} per-layer metrics are not on this workload's path (0)")


def command_run(workload: str, seed: int, seconds: float | None, trace: bool) -> int:
    spec = load_spec()
    seconds = DEFAULT_SECONDS if seconds is None else seconds
    result = execute(workload, seed, seconds, trace)
    metrics = spec.metrics(trace)
    print_table(workload, result, metrics)
    sys.stdout.flush()
    print(result_line(result, metrics))
    # The verdict travels in the result line; a non-zero exit means the
    # benchmark itself could not run.
    return 0


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict[str, Any]:
    """One benchmark run in its own process (peak memory and CPU pinning
    are per process); returns the parsed result line, with the printed
    table under ``"table"`` and its numeric notes under ``"notes"``."""
    done = subprocess.run(
        [
            sys.executable, "-m", "bench", "run",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The notes (raw and pooled values, host scale) ride along in result
    # sets, so the estimator itself can be studied.
    notes = {}
    for line in lines[:-1]:
        if line.startswith("  note ") and " = " in line:
            key, _, value = line[len("  note "):].partition(" = ")
            try:
                notes[key] = float(value)
            except ValueError:
                pass
    result["notes"] = notes
    result["table"] = "\n".join(lines[:-1])
    return result


def command_all(seed: int, seconds: float | None) -> int:
    """Every workload, untraced then traced: every metric by name and unit."""
    spec = load_spec()
    seconds = DEFAULT_SECONDS if seconds is None else seconds
    status = 0
    for workload in spec.workloads:
        for trace in (0, 1):
            result = run_once(workload, seed, seconds, trace)
            print(result["table"], end="\n\n")
            status |= 0 if result["correct"] else 1
    return status
