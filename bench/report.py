"""Result sets: the noise acceptance procedure and base/new comparison.

A *result set file* holds, per set and workload, the end-to-end metrics
of several runs (each its own process and its own ``--seed``), plus
where and when they were measured.  ``noise`` produces one and judges
it against the benchmark's own bounds; ``compare`` judges one file
against another.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any

import numpy as np

from bench import ROOT, measure
from bench.runner import RESULTS_DIR, run_once
from bench.spec import DEFAULT_SECONDS, Metric, load_spec

def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def worsening(metric: Metric, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    change = (new - base) / abs(base)
    return -change if metric.better == "higher" else change


def host_reference_us() -> float:
    """Quiet-state step time of the round-path host reference, right now."""
    reference = measure.RoundReference()
    for _ in range(50):
        reference.block()
    return reference.floor_us()


def provenance() -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "commit": commit or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "host.ref_us": host_reference_us(),
    }


def command_noise(
    runs: int, sets: int, seconds: float | None, only: list[str] | None
) -> int:
    """Run ``sets`` x ``runs`` seeds of every workload and hold the
    benchmark to its own bounds: per workload and end-to-end metric, the
    spread over seeds of each set and the gap between the sets' medians."""
    spec = load_spec()
    seconds = DEFAULT_SECONDS if seconds is None else seconds
    workloads = only or list(spec.workloads)
    if runs < 2:
        raise SystemExit("noise needs at least 2 runs per set to have quartiles")
    record: dict[str, Any] = {
        "kind": "noise",
        "seconds": seconds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "provenance": provenance(),
        "loadavg_start": os.getloadavg(),
        "sets": [],
    }
    incorrect = 0
    for set_index in range(sets):
        this_set: dict[str, Any] = {}
        for workload in workloads:
            seeds = [set_index * runs + k + 1 for k in range(runs)]
            results: list[dict[str, float]] = []
            notes: list[dict[str, float]] = []
            for seed in seeds:
                started = time.perf_counter()
                result = run_once(workload, seed, seconds)
                incorrect += not result["correct"] or result["failed"] > 0
                results.append(
                    {name: m["value"] for name, m in result["metrics"].items()}
                )
                notes.append(result["notes"])
                print(
                    f"set {set_index} {workload} seed {seed}: "
                    f"correct={result['correct']} {time.perf_counter() - started:.1f}s",
                    file=sys.stderr,
                )
            this_set[workload] = {"seeds": seeds, "runs": results, "notes": notes}
        record["sets"].append(this_set)
    record["loadavg_end"] = os.getloadavg()
    record["provenance"]["host.ref_us_end"] = host_reference_us()

    failures = incorrect
    print(f"{'workload':18s} {'metric':18s} {'bound':>6s}  " + "  ".join(
        f"{'median' + str(k):>12s} {'spread' + str(k):>8s}" for k in range(sets)
    ) + f"  {'gap':>7s}  verdict")
    for workload in workloads:
        for metric in spec.end_to_end:
            series = [
                [run[metric.name] for run in s[workload]["runs"]] for s in record["sets"]
            ]
            medians = [statistics.median(v) for v in series]
            spreads = [spread(v) for v in series]
            gap = max(
                (worsening(metric, medians[0], m) for m in medians[1:]), default=0.0
            )
            assert metric.bound is not None
            too_wide = metric.name != "setup_s" and max(spreads) > metric.bound
            verdict = "FAIL" if too_wide or gap > metric.bound else "ok"
            failures += verdict == "FAIL"
            print(
                f"{workload:18s} {metric.name:18s} {metric.bound:6.3f}  "
                + "  ".join(f"{m:12.5g} {s:8.4f}" for m, s in zip(medians, spreads))
                + f"  {gap:+7.4f}  {verdict}"
            )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"noise-{time.strftime('%Y%m%d-%H%M%S')}.json"
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    print(f"result set written to {path.relative_to(ROOT)}; "
          f"{failures} failures ({incorrect} incorrect runs)")
    return 1 if failures else 0


def _pooled(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> every run's value, over all sets of a file."""
    with open(path) as handle:
        record = json.load(handle)
    pooled: dict[str, dict[str, list[float]]] = {}
    for one_set in record["sets"]:
        for workload, entry in one_set.items():
            for run in entry["runs"]:
                for name, value in run.items():
                    pooled.setdefault(workload, {}).setdefault(name, []).append(value)
    return pooled


def command_compare(base_path: str, new_path: str) -> int:
    """Per metric, one row per workload: base, new, their ratio, the bound
    and a verdict.

    ``regressed``: the new median is worse than the base median by more
    than the bound.  ``unresolved``: not regressed, but a spread is wider
    than the bound and the runs overlap, so "no change" cannot be claimed
    either.  ``ok`` otherwise.
    """
    spec = load_spec()
    base, new = _pooled(base_path), _pooled(new_path)
    regressions = 0
    for metric in spec.end_to_end:
        assert metric.bound is not None
        print(f"\n{metric.name} [{metric.unit}] ({metric.better} is better, "
              f"bound {metric.bound:g})")
        print(f"  {'workload':18s} {'base':>12s} {'new':>12s} {'new/base':>9s} "
              f"{'spread b/n':>15s}  verdict")
        for workload in spec.workloads:
            b = base.get(workload, {}).get(metric.name)
            n = new.get(workload, {}).get(metric.name)
            if not b or not n:
                print(f"  {workload:18s} missing in {'base' if not b else 'new'}")
                continue
            b_med, n_med = statistics.median(b), statistics.median(n)
            widest = max(
                spread(v) if len(v) > 1 else 0.0 for v in (b, n)
            )
            if metric.better == "higher":
                all_better = min(n) > max(b)
            else:
                all_better = max(n) < min(b)
            if worsening(metric, b_med, n_med) > metric.bound:
                verdict = "regressed"
                regressions += 1
            elif widest > metric.bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            spreads = "/".join(f"{spread(v):.3f}" if len(v) > 1 else "-" for v in (b, n))
            print(
                f"  {workload:18s} {b_med:12.6g} {n_med:12.6g} "
                f"{n_med / b_med:8.4f}x {spreads:>15s}  {verdict}"
            )
    print(f"\n{regressions} regressions (ratios are new/base of the medians)")
    return 1 if regressions else 0
