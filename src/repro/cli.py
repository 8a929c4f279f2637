"""Command-line interface for running CoCa scenarios.

Usage::

    python -m repro info
    python -m repro compare --dataset ucf101 --classes 50 --model resnet101 \
        --clients 4 --non-iid 1 --rounds 3 --methods edge,coca,smtm
    python -m repro compare --methods edge,coca --json
    python -m repro sweep-theta --dataset ucf101 --classes 50 \
        --model resnet101 --thetas 0.03,0.05,0.07
    python -m repro cluster --shards 4 --clients 64 --sync-interval 1 \
        --policy region --rounds 2
    python -m repro profile-round --clients 4 --rounds 2
    python -m repro serve runs/table.snapshot --workers 2 --requests 32
    python -m repro loadgen runs/table.snapshot --workers 2 --rate 200 --json
    python -m repro lint src --json
    python -m repro store inspect runs/table.snapshot --verify
    python -m repro store diff runs/before.snapshot runs/after.snapshot --json

Every command parses its flags, makes one library call (a method is
built by :func:`repro.baselines.build_runner`), gathers the result in
one payload, and prints that payload as JSON (``--json``) or as text.
All runs are fully offline and deterministic for a given ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from repro.baselines import METHODS, build_runner
from repro.cluster import ASSIGNMENT_POLICIES, ClusterFramework
from repro.core.config import CoCaConfig
from repro.core.deployment import Scenario
from repro.core.framework import CoCaFramework
from repro.data.datasets import get_dataset
from repro.models.zoo import available_models
from repro.serve import (
    SERVE_MODES,
    LoadgenConfig,
    ServeConfig,
    WorkerOptions,
    analytic_wait_ms,
    run_loadgen,
)
from repro.sim.metrics import LatencySummary, MetricsSummary, summarize_latencies
from repro.sim.network import ServerLoadModel

#: Display name of each method by its ``--methods`` key.
METHOD_KEYS = {method.key: name for name, method in METHODS.items()}

#: Stage order of the profile-round breakdown (client stages, then the
#: server-side allocation and merge work of one protocol round).
PROFILE_STAGES = ("sample-gen", "probe", "model", "collect", "allocate", "merge")


def _print_json(payload: dict[str, Any]) -> None:
    """Print a payload; the metric summaries in it print as their rows."""
    print(json.dumps(payload, indent=2, default=lambda summary: summary.as_row()))


def _scenario_kwargs(args: argparse.Namespace) -> dict[str, Any]:
    """The scenario flags, as the keywords of ``Scenario`` and of both frameworks."""
    return {
        "dataset": get_dataset(args.dataset, args.classes),
        "model_name": args.model,
        "num_clients": args.clients,
        "non_iid_level": args.non_iid,
        "longtail_rho": args.longtail,
        "seed": args.seed,
    }


def _method_row(
    method: str, scenario: Scenario, threshold: float | None, args: argparse.Namespace
) -> MetricsSummary:
    """One method's measured rounds on the scenario."""
    runner = build_runner(method, scenario, threshold)
    return runner.run(args.rounds, warmup_rounds=args.warmup).summary()


def _row_text(label: str, summary: MetricsSummary, hits: bool = True) -> str:
    """A row label, then latency, accuracy and hit ratio (``—`` without hits)."""
    hit = f"{100 * summary.hit_ratio:9.1f}%" if hits else "—"
    return f"{label}{summary.avg_latency_ms:9.2f}ms{100 * summary.accuracy:9.1f}%{hit:>11s}"


_ROW_HEADER = f"{'latency':>10s}{'accuracy':>10s}{'hit ratio':>11s}"


def cmd_info(_args: argparse.Namespace) -> int:
    print("models:   " + ", ".join(available_models()))
    print("datasets: ucf101 (101 cls), imagenet100 (100 cls), esc50 (50 cls)")
    print("methods:  " + ", ".join(sorted(METHOD_KEYS)))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run methods head-to-head on one scenario.

    ``--theta`` goes to the methods whose threshold is Eq. 2's theta (SMTM
    and CoCa); the others run at their defaults.
    """
    keys = [k.strip().lower() for k in args.methods.split(",") if k.strip()]
    unknown = [k for k in keys if k not in METHOD_KEYS]
    if unknown:
        print(f"unknown methods: {unknown}; see `python -m repro info`", file=sys.stderr)
        return 2
    scenario = Scenario(**_scenario_kwargs(args))
    methods: dict[str, MetricsSummary] = {}
    for key in keys:
        name = METHOD_KEYS[key]
        theta = args.theta if METHODS[name].threshold == "theta" else None
        methods[key] = _method_row(name, scenario, theta, args)
    payload: dict[str, Any] = {
        "scenario": {
            "model": scenario.model_name,
            "dataset": scenario.dataset.name,
            "clients": scenario.num_clients,
            "non_iid": scenario.non_iid_level,
            "longtail_rho": scenario.longtail_rho,
            "rounds": args.rounds,
            "seed": scenario.seed,
            "theta": args.theta,
        },
        "methods": methods,
    }
    if args.json:
        _print_json(payload)
        return 0
    s = payload["scenario"]
    print(
        f"{s['model']} on {s['dataset']}, {s['clients']} clients, p={s['non_iid']:g}, "
        f"rho={s['longtail_rho']:g}, seed={s['seed']}\n"
    )
    print(f"{'method':14s}{_ROW_HEADER}")
    for key, summary in methods.items():
        name = METHOD_KEYS[key]
        # A method without a decision threshold has no cache to hit.
        print(_row_text(f"{name:14s}", summary, hits=METHODS[name].threshold is not None))
    return 0


def cmd_sweep_theta(args: argparse.Namespace) -> int:
    """CoCa's ``compare`` row at each ``--thetas`` value."""
    scenario = Scenario(**_scenario_kwargs(args))
    thetas = [float(t) for t in args.thetas.split(",") if t.strip()]
    rows = [(theta, _method_row("CoCa", scenario, theta, args)) for theta in thetas]
    print(f"{'theta':>7s}{_ROW_HEADER}")
    for theta, summary in rows:
        print(_row_text(f"{theta:7.3f}", summary))
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    setting = _scenario_kwargs(args)
    cluster = ClusterFramework(
        **setting,
        num_shards=args.shards,
        config=CoCaConfig(theta=args.theta, frames_per_round=args.frames),
        sync_interval=args.sync_interval,
        assignment_policy=args.policy,
        load=ServerLoadModel(service_time_ms=args.service_ms),
        merge_service_ms=args.merge_ms,
    )
    result = cluster.run(args.rounds, warmup_rounds=args.warmup)
    span_ms, throughput = result.measured_span_ms, result.throughput_inferences_per_s
    assert span_ms is not None and throughput is not None  # a cluster keeps clocks
    payload: dict[str, Any] = {
        "scenario": {
            "model": args.model,
            "dataset": setting["dataset"].name,
            "shards": args.shards,
            "clients": args.clients,
            "sync_interval": args.sync_interval,
            "policy": args.policy,
            "rounds": args.rounds,
            "seed": args.seed,
        },
        "throughput_inferences_per_s": round(throughput, 2),
        "virtual_span_ms": round(span_ms, 2),
        "metrics": result.summary(),
        "nodes": [
            {
                "node": node.node_id,
                "clients": len(node.assigned_clients),
                "requests": node.requests_served,
                "mean_wait_ms": round(node.mean_wait_ms, 2),
                "busy_ms": round(node.total_busy_ms, 2),
            }
            for node in cluster.nodes
        ],
        "cross_shard_syncs": cluster.coordinator.syncs_performed,
    }
    if args.json:
        _print_json(payload)
        return 0
    s, summary = payload["scenario"], payload["metrics"]
    print(
        f"{s['model']} on {s['dataset']}, {s['shards']} shards, {s['clients']} clients, "
        f"sync={s['sync_interval']}, policy={s['policy']}, seed={s['seed']}\n"
    )
    print(
        f"throughput {payload['throughput_inferences_per_s']:8.0f} inf/vs   "
        f"latency {summary.avg_latency_ms:7.2f}ms   "
        f"accuracy {100 * summary.accuracy:5.1f}%   "
        f"hit ratio {100 * summary.hit_ratio:5.1f}%"
    )
    print(f"\n{'node':>5s}{'clients':>9s}{'requests':>10s}{'mean wait':>11s}{'busy':>10s}")
    for row in payload["nodes"]:
        print(
            f"{row['node']:5d}{row['clients']:9d}{row['requests']:10d}"
            f"{row['mean_wait_ms']:9.1f}ms{row['busy_ms']:8.0f}ms"
        )
    return 0


def cmd_profile_round(args: argparse.Namespace) -> int:
    """Per-stage wall-clock breakdown of full protocol rounds.

    Runs ``--rounds`` measured rounds (after ``--warmup`` untimed ones)
    with stage accumulators threaded down to the engine, then prints
    where the time went: sample generation, cache probes, final-model
    classification, Eq. 3 collection, ACA allocation, and the Eq. 4/5
    merge.
    """
    setting = _scenario_kwargs(args)
    config = CoCaConfig(theta=args.theta, lookup_dtype=args.dtype)
    framework = CoCaFramework(**setting, config=config)
    for r in range(args.warmup):
        framework.run_round(r)
    timings: dict[str, float] = {}
    round_ms: list[float] = []
    for r in range(args.rounds):
        started = time.perf_counter()
        framework.run_round(args.warmup + r, timings=timings)
        round_ms.append(1e3 * (time.perf_counter() - started))
    frames = args.rounds * args.clients * config.frames_per_round
    accounted = sum(timings.get(stage, 0.0) for stage in PROFILE_STAGES)
    payload: dict[str, Any] = {
        "scenario": {
            "model": args.model,
            "dataset": setting["dataset"].name,
            "clients": args.clients,
            "rounds": args.rounds,
            "frames": frames,
            "seed": args.seed,
            "lookup_dtype": args.dtype,
        },
        "stages_ms": {
            stage: round(1e3 * timings.get(stage, 0.0), 3) for stage in PROFILE_STAGES
        },
        "total_ms": round(1e3 * accounted, 3),
        "inferences_per_s": round(frames / accounted, 1) if accounted else None,
        # Whole-round wall clock (stages + unaccounted overhead), the
        # same percentile shape the serve load generator reports.
        "round_ms": summarize_latencies(round_ms),
    }
    if args.json:
        _print_json(payload)
        return 0
    s, total = payload["scenario"], payload["total_ms"]
    print(
        f"{s['model']} on {s['dataset']}, {s['clients']} clients x {s['rounds']} rounds x "
        f"{config.frames_per_round} frames, dtype={s['lookup_dtype']}, seed={s['seed']}\n"
    )
    print(f"{'stage':>14s}{'time':>12s}{'share':>9s}")
    for stage, ms in payload["stages_ms"].items():
        print(f"{stage:>14s}{ms:10.1f}ms{100.0 * ms / total if total else 0.0:8.1f}%")
    print(
        f"\ntotal {total:.1f}ms for {frames} inferences "
        f"({payload['inferences_per_s']:,.0f} inf/s)"
        if payload["inferences_per_s"] is not None
        else "\nno stage time recorded"
    )
    print(f"per round: {payload['round_ms'].format()}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve`` and ``loadgen``: drive a snapshot's serving cluster.

    ``serve`` smokes it: ``--requests`` synthetic requests fired once each
    (open loop at an effectively unlimited rate), reported under
    ``smoke`` next to each lane's warm start — the round-trip proof that
    the snapshot serves; its text report exits 1 unless every request
    succeeded.  ``loadgen`` drives it open loop at ``--rate`` (Poisson
    arrivals, plus the M/D/1 queue-wait cross-check when a single worker
    serves) or closed loop with ``--concurrency`` sessions, and reports
    the run at the top level.
    """
    if args.command == "serve":
        load = LoadgenConfig(
            rate_per_s=1e6, num_requests=args.requests, batch=args.batch, seed=args.seed
        )
    else:
        load = LoadgenConfig(
            rate_per_s=args.rate,
            num_requests=args.requests,
            concurrency=args.concurrency,
            duration_s=args.duration,
            batch=args.batch,
            noise=args.noise,
            miss_fraction=args.miss_fraction,
            seed=args.seed,
            use_retry=not args.no_retry,
        )
    config = ServeConfig(
        snapshot_path=args.snapshot,
        num_workers=args.workers,
        mode=args.mode,
        queue_depth=args.queue_depth,
        deadline_ms=args.deadline_ms,
        max_retries=args.retries,
        router_salt=args.salt,
        worker=WorkerOptions(
            alpha=args.alpha,
            theta=args.theta,
            service_floor_ms=args.service_floor_ms,
            miss_ms=args.miss_ms,
        ),
    )
    report = run_loadgen(config, load)
    run = report.as_json()
    lanes = report.frontend_stats.get("lanes", [])
    if args.command == "serve":
        payload: dict[str, Any] = {
            "snapshot": args.snapshot,
            "mode": config.mode,
            "workers": config.num_workers,
            "queue_depth": config.queue_depth,
            "deadline_ms": config.deadline_ms,
            "lanes": lanes,
            "smoke": run,
        }
    else:
        payload = dict(run, workers=config.num_workers, mode=f"{report.mode}/{config.mode}")
        single_lane = load.rate_per_s is not None and config.num_workers == 1
        if single_lane and report.service is not None and report.duration_s > 0:
            try:
                rho, wait = analytic_wait_ms(
                    report.offered / report.duration_s, report.service.mean_ms
                )
                payload["analytic"] = {
                    "utilization": round(rho, 3), "predicted_wait_ms": round(wait, 3)
                }
            except ValueError:
                payload["analytic"] = {"utilization": None, "predicted_wait_ms": None}
    if args.json:
        _print_json(payload)
        return 0
    print(
        f"{report.mode} over {config.num_workers} {config.mode} worker(s) of "
        f"{args.snapshot}: {run['offered']} requests in {run['duration_s']:.2f}s "
        f"({run['throughput_rps']:.0f} ok/s)"
    )
    for lane in lanes:
        info = lane.get("worker", {})
        print(
            f"  shard {lane['shard']}: pid {info.get('pid')}, "
            f"warm start {info.get('init_ms', 0.0):.1f}ms, "
            f"epoch {info.get('epoch')}, served {lane['served']}"
        )
    print(
        f"outcomes: {run['success']}/{run['offered']} ok, {run['timeout']} timeout, "
        f"{run['shed']} shed ({run['retries']} retries, {run['late_responses']} late)"
    )
    for label, key in (("latency", "latency_ms"), ("queue wait", "wait_ms"),
                       ("service", "service_ms")):
        if run[key] is not None:
            print(f"{label:>10s}: {LatencySummary(**run[key]).format()}")
    analytic = payload.get("analytic")
    if analytic and analytic["predicted_wait_ms"] is not None:
        print(
            f"  analytic: M/D/1 at rho={analytic['utilization']} predicts "
            f"{analytic['predicted_wait_ms']}ms mean wait "
            f"(measured {run['wait_ms']['mean_ms']:.3f}ms)"
        )
    print(f"hit ratio: {run['hit_ratio_pct']:.1f}%")
    return 0 if args.command == "loadgen" or report.success == report.offered else 1


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the repo-aware static invariant checker (see repro.lint)."""
    from pathlib import Path

    from repro.lint import lint_paths, load_all_rules
    from repro.lint.runner import find_repo_root

    if args.list_rules:
        for rule in load_all_rules().values():
            print(f"{rule.id:28s} {rule.description}")
        return 0

    paths = [Path(p) for p in (args.paths or ["src"])]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {missing[0]}", file=sys.stderr)
        return 2
    rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()] if args.rules else None
    unknown = sorted(set(rule_ids or ()) - set(load_all_rules()))
    if unknown:
        print(f"unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    report = lint_paths(paths, rule_ids=rule_ids, root=find_repo_root(paths[0]))

    if args.json:
        _print_json({
            "files_scanned": report.files_scanned,
            "findings": [f.as_dict() for f in report.findings],
            "suppressed": len(report.suppressed),
            "ok": report.ok,
        })
        return 0 if report.ok else 1

    for finding in report.findings:
        print(finding.format())
    summary = (
        f"{report.files_scanned} file(s) scanned: "
        f"{len(report.findings)} finding(s), {len(report.suppressed)} suppressed"
    )
    if report.ok:
        print(f"repro lint: clean ({summary})")
        return 0
    print(f"repro lint: FAILED ({summary})", file=sys.stderr)
    return 1


def cmd_store_inspect(args: argparse.Namespace) -> int:
    """Describe a snapshot-store directory (``repro store inspect``)."""
    from repro.store import MappedTableStore, SnapshotFormatError

    try:
        with MappedTableStore(args.path, verify=args.verify) as store:
            manifest, references = store.manifest, sorted(store.references())
    except (SnapshotFormatError, OSError) as exc:
        print(f"cannot open snapshot {args.path}: {exc}", file=sys.stderr)
        return 1
    payload: dict[str, Any] = {
        "path": str(store.path),
        "layout_version": manifest.layout_version,
        "epoch": manifest.epoch,
        "geometry": {
            "classes": manifest.num_classes,
            "layers": manifest.num_layers,
            "dim": manifest.dim,
        },
        "dtype": manifest.dtype,
        "shards": [
            {
                "file": spec.file,
                "layers": [spec.layer_lo, spec.layer_hi],
                "nbytes": spec.nbytes,
                "sha256": spec.sha256,
            }
            for spec in manifest.shards
        ],
        # Every snapshot holds the fill mask and Phi next to its references.
        "meta_arrays": sorted(["filled", "class_freq", *references]),
        "references": references,
        "verified": bool(args.verify),
    }
    if args.json:
        _print_json(payload)
        return 0
    g = payload["geometry"]
    print(
        f"{payload['path']}: repro-snapshot v{payload['layout_version']}, "
        f"epoch {payload['epoch']}, {g['classes']} classes x {g['layers']} layers "
        f"x {g['dim']} dim, dtype {payload['dtype']}"
        + (" (checksums verified)" if payload["verified"] else "")
    )
    print(f"\n{'shard':28s}{'layers':>10s}{'bytes':>12s}  sha256")
    for shard in payload["shards"]:
        lo, hi = shard["layers"]
        print(
            f"{shard['file']:28s}{f'{lo}-{hi - 1}':>10s}"
            f"{shard['nbytes']:12,d}  {shard['sha256'][:12]}…"
        )
    print(f"\nmeta arrays: {', '.join(payload['meta_arrays'])}")
    return 0


def cmd_store_diff(args: argparse.Namespace) -> int:
    """Row-level difference between two snapshots of one table.

    Exits 1 when a snapshot cannot be read and 2 when the two differ in
    geometry (:func:`~repro.store.diff_tables` refuses them).
    """
    from repro.store import MappedTableStore, SnapshotFormatError, diff_tables, full_rows_nbytes

    try:
        with MappedTableStore(args.base) as base, MappedTableStore(args.target) as target:
            # Diffing backwards in time: a delta between no epochs.
            forward = base.epoch <= target.epoch
            delta = diff_tables(
                base.as_table(),
                target.as_table(),
                base_epoch=base.epoch if forward else 0,
                target_epoch=target.epoch if forward else 0,
            )
    except (SnapshotFormatError, OSError) as exc:
        print(f"cannot diff snapshots: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"cannot diff snapshots: {exc}", file=sys.stderr)
        return 2
    full_nbytes = full_rows_nbytes(base.num_classes, base.num_layers, base.dim)
    payload: dict[str, Any] = {
        "base": str(args.base),
        "target": str(args.target),
        "base_epoch": base.epoch,
        "target_epoch": target.epoch,
        "entry_rows_changed": int(delta.entry_rows.size),
        "freq_rows_changed": int(delta.freq_rows.size),
        "classes": base.num_classes,
        "delta_nbytes": delta.nbytes,
        "full_copy_nbytes": full_nbytes,
        "bytes_ratio": round(delta.nbytes / full_nbytes, 4),
    }
    if args.json:
        _print_json(payload)
        return 0
    p = payload
    print(f"{p['base']} (epoch {p['base_epoch']}) -> {p['target']} (epoch {p['target_epoch']}):")
    print(
        f"  {p['entry_rows_changed']}/{p['classes']} entry rows changed, "
        f"{p['freq_rows_changed']}/{p['classes']} freq rows changed"
    )
    print(
        f"  delta would ship {p['delta_nbytes']:,d} bytes ({100 * p['bytes_ratio']:.1f}% "
        f"of a {p['full_copy_nbytes']:,d}-byte full copy)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description="CoCa reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of text")

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--dataset", default="ucf101")
    scenario.add_argument("--classes", type=int, default=None,
                          help="subset size (default: full dataset)")
    scenario.add_argument("--model", default="resnet101", choices=available_models())
    scenario.add_argument("--clients", type=int, default=4)
    scenario.add_argument("--non-iid", dest="non_iid", type=float, default=1.0)
    scenario.add_argument("--longtail", type=float, default=1.0,
                          help="imbalance ratio rho (1 = uniform)")
    scenario.add_argument("--rounds", type=int, default=3)
    scenario.add_argument("--warmup", type=int, default=1)
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--theta", type=float, default=0.05)

    info = sub.add_parser("info", help="list models, datasets and methods")
    info.set_defaults(func=cmd_info)

    compare = sub.add_parser("compare", parents=[scenario, as_json],
                             help="run methods head-to-head")
    compare.add_argument("--methods", default="edge,coca", help="comma-separated (see `info`)")
    compare.set_defaults(func=cmd_compare)

    sweep = sub.add_parser("sweep-theta", parents=[scenario], help="CoCa threshold sweep")
    sweep.add_argument("--thetas", default="0.03,0.05,0.07")
    sweep.set_defaults(func=cmd_sweep_theta)

    cluster = sub.add_parser("cluster", parents=[scenario, as_json],
                             help="run a sharded multi-node cluster deployment")
    cluster.add_argument("--shards", type=int, default=4, help="shard (= node) count")
    cluster.add_argument("--sync-interval", dest="sync_interval", type=int, default=1,
                         help="rounds between cross-shard syncs")
    cluster.add_argument("--policy", default="hash", choices=ASSIGNMENT_POLICIES,
                         help="client -> node assignment policy")
    cluster.add_argument("--frames", type=int, default=60, help="frames per round (F)")
    cluster.add_argument("--service-ms", dest="service_ms", type=float, default=1.35,
                         help="per-request node service time")
    cluster.add_argument("--merge-ms", dest="merge_ms", type=float, default=0.5,
                         help="per-upload-piece merge time")
    cluster.set_defaults(func=cmd_cluster)

    profile = sub.add_parser("profile-round", parents=[scenario, as_json],
                             help="per-stage timing breakdown of full protocol rounds")
    profile.add_argument("--dtype", default="float32", choices=("float32", "float64"),
                         help="cache lookup dtype")
    profile.set_defaults(func=cmd_profile_round)

    serving = argparse.ArgumentParser(add_help=False, parents=[as_json])
    serving.add_argument("snapshot", help="table snapshot directory to serve")
    serving.add_argument("--workers", type=int, default=2,
                         help="shard worker count (one shard per worker)")
    serving.add_argument("--mode", default="thread", choices=SERVE_MODES,
                         help="worker execution mode: thread = on the front-end's event "
                              "loop, process = one process per shard")
    serving.add_argument("--queue-depth", dest="queue_depth", type=int, default=32,
                         help="per-shard admission queue bound")
    serving.add_argument("--deadline-ms", dest="deadline_ms", type=float, default=250.0,
                         help="per-request deadline")
    serving.add_argument("--retries", type=int, default=3,
                         help="max retries after shed (exponential backoff)")
    serving.add_argument("--service-floor-ms", dest="service_floor_ms", type=float,
                         default=0.0, help="emulated per-request device service time")
    serving.add_argument("--miss-ms", dest="miss_ms", type=float, default=0.0,
                         help="emulated full-model time per missed frame")
    serving.add_argument("--alpha", type=float, default=0.5,
                         help="Eq. 1 cross-layer accumulation factor")
    serving.add_argument("--theta", type=float, default=0.05, help="Eq. 2 early-exit threshold")
    serving.add_argument("--salt", type=int, default=0, help="class -> shard router salt")
    serving.add_argument("--batch", type=int, default=16, help="frames per request")
    serving.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser("serve", parents=[serving],
                           help="start shard workers from a snapshot and smoke the "
                                "admission path")
    serve.add_argument("--requests", type=int, default=32,
                       help="synthetic smoke requests to round-trip")
    serve.set_defaults(func=cmd_serve)

    loadgen = sub.add_parser("loadgen", parents=[serving],
                             help="drive the serving cluster at a target rate and report "
                                  "wall-clock percentiles")
    loadgen.add_argument("--rate", type=float, default=None,
                         help="open-loop arrival rate (requests/s); omit for closed loop")
    loadgen.add_argument("--requests", type=int, default=200, help="open-loop request count")
    loadgen.add_argument("--concurrency", type=int, default=8,
                         help="closed-loop client sessions")
    loadgen.add_argument("--duration", type=float, default=2.0,
                         help="closed-loop drive seconds")
    loadgen.add_argument("--noise", type=float, default=0.2,
                         help="query jitter around stored centroids")
    loadgen.add_argument("--miss-fraction", dest="miss_fraction", type=float, default=0.0,
                         help="fraction of pure-noise (miss) frames")
    loadgen.add_argument("--no-retry", dest="no_retry", action="store_true",
                         help="report sheds instead of retrying them")
    loadgen.set_defaults(func=cmd_serve)

    lint = sub.add_parser("lint", parents=[as_json],
                          help="run the repo-aware static invariant checker")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to scan (default: src)")
    lint.add_argument("--rules", default=None,
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--list-rules", dest="list_rules", action="store_true",
                      help="list registered rules and exit")
    lint.set_defaults(func=cmd_lint)

    store = sub.add_parser("store", help="inspect and diff table snapshot stores")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_inspect = store_sub.add_parser("inspect", parents=[as_json],
                                         help="describe a snapshot directory's manifest")
    store_inspect.add_argument("path", help="snapshot directory")
    store_inspect.add_argument("--verify", action="store_true",
                               help="recompute every array checksum (reads all shard bytes)")
    store_inspect.set_defaults(func=cmd_store_inspect)
    store_diff = store_sub.add_parser("diff", parents=[as_json],
                                      help="row-level difference between two snapshots")
    store_diff.add_argument("base", help="older snapshot directory")
    store_diff.add_argument("target", help="newer snapshot directory")
    store_diff.set_defaults(func=cmd_store_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
