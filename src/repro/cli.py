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

All runs are fully offline and deterministic for a given ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.baselines import CoCaRunner, EdgeOnly, FoggyCache, LearnedCache, SMTM
from repro.cluster import ASSIGNMENT_POLICIES, ClusterFramework
from repro.core.config import CoCaConfig
from repro.core.framework import CoCaFramework
from repro.data.datasets import get_dataset
from repro.experiments.scenario import Scenario
from repro.experiments.slo import fresh_scenario
from repro.models.zoo import available_models
from repro.serve import (
    SERVE_MODES,
    LoadgenConfig,
    ServeConfig,
    WorkerOptions,
    analytic_wait_ms,
    run_loadgen,
)
from repro.sim.metrics import summarize_latencies
from repro.sim.network import ServerLoadModel

METHOD_NAMES = {
    "edge": "Edge-Only",
    "learnedcache": "LearnedCache",
    "foggycache": "FoggyCache",
    "smtm": "SMTM",
    "coca": "CoCa",
}


def _build_scenario(args: argparse.Namespace) -> Scenario:
    dataset = get_dataset(args.dataset, args.classes)
    return Scenario(
        dataset=dataset,
        model_name=args.model,
        num_clients=args.clients,
        non_iid_level=args.non_iid,
        longtail_rho=args.longtail,
        seed=args.seed,
    )


def _build_runner(key: str, scenario: Scenario, theta: float):
    if key == "edge":
        return EdgeOnly(scenario)
    if key == "learnedcache":
        return LearnedCache(scenario)
    if key == "foggycache":
        return FoggyCache(scenario)
    if key == "smtm":
        return SMTM(scenario, theta=theta)
    if key == "coca":
        return CoCaRunner(scenario, config=CoCaConfig(theta=theta))
    raise KeyError(key)


def cmd_info(_args: argparse.Namespace) -> int:
    print("models:   " + ", ".join(available_models()))
    print("datasets: ucf101 (101 cls), imagenet100 (100 cls), esc50 (50 cls)")
    print("methods:  " + ", ".join(sorted(METHOD_NAMES)))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = _build_scenario(args)
    keys = [k.strip().lower() for k in args.methods.split(",") if k.strip()]
    unknown = [k for k in keys if k not in METHOD_NAMES]
    if unknown:
        print(f"unknown methods: {unknown}; see `python -m repro info`",
              file=sys.stderr)
        return 2
    if not args.json:
        print(
            f"{scenario.model_name} on {scenario.dataset.name}, "
            f"{scenario.num_clients} clients, p={scenario.non_iid_level:g}, "
            f"rho={scenario.longtail_rho:g}, seed={scenario.seed}\n"
        )
        print(f"{'method':14s}{'latency':>10s}{'accuracy':>10s}{'hit ratio':>11s}")
    rows: dict[str, dict[str, float]] = {}
    for key in keys:
        runner = _build_runner(key, fresh_scenario(scenario), args.theta)
        summary = runner.run(args.rounds, warmup_rounds=args.warmup).summary()
        if args.json:
            rows[key] = summary.as_row()
            continue
        hit = f"{100 * summary.hit_ratio:9.1f}%" if summary.hit_ratio else "        —"
        print(
            f"{METHOD_NAMES[key]:14s}{summary.avg_latency_ms:9.2f}ms"
            f"{100 * summary.accuracy:9.1f}%{hit:>11s}"
        )
    if args.json:
        print(json.dumps(
            {
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
                "methods": rows,
            },
            indent=2,
        ))
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    dataset = get_dataset(args.dataset, args.classes)
    config = CoCaConfig(theta=args.theta, frames_per_round=args.frames)
    load = ServerLoadModel(service_time_ms=args.service_ms)
    cluster = ClusterFramework(
        dataset=dataset,
        model_name=args.model,
        num_shards=args.shards,
        num_clients=args.clients,
        config=config,
        seed=args.seed,
        non_iid_level=args.non_iid,
        longtail_rho=args.longtail,
        sync_interval=args.sync_interval,
        assignment_policy=args.policy,
        load=load,
        merge_service_ms=args.merge_ms,
    )
    result = cluster.run(args.rounds, warmup_rounds=args.warmup)
    summary = result.summary()
    payload = {
        "scenario": {
            "model": args.model,
            "dataset": dataset.name,
            "shards": args.shards,
            "clients": args.clients,
            "sync_interval": args.sync_interval,
            "policy": args.policy,
            "rounds": args.rounds,
            "seed": args.seed,
        },
        "throughput_inferences_per_s": round(
            result.throughput_inferences_per_s, 2
        ),
        "virtual_span_ms": round(result.measured_span_ms, 2),
        "metrics": summary.as_row(),
        "nodes": [
            {
                "node": node.node_id,
                "clients": len(node.assigned_clients),
                "requests": node.requests_served,
                "mean_wait_ms": round(node.mean_wait_ms, 2),
                "busy_ms": round(node.total_busy_ms, 2),
            }
            for node in result.nodes
        ],
        "cross_shard_syncs": result.coordinator.syncs_performed,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{args.model} on {dataset.name}, {args.shards} shards, "
        f"{args.clients} clients, sync={args.sync_interval}, "
        f"policy={args.policy}, seed={args.seed}\n"
    )
    print(
        f"throughput {result.throughput_inferences_per_s:8.0f} inf/vs   "
        f"latency {summary.avg_latency_ms:7.2f}ms   "
        f"accuracy {100 * summary.accuracy:5.1f}%   "
        f"hit ratio {100 * summary.hit_ratio:5.1f}%"
    )
    print(f"\n{'node':>5s}{'clients':>9s}{'requests':>10s}"
          f"{'mean wait':>11s}{'busy':>10s}")
    for row in payload["nodes"]:
        print(
            f"{row['node']:5d}{row['clients']:9d}{row['requests']:10d}"
            f"{row['mean_wait_ms']:9.1f}ms{row['busy_ms']:8.0f}ms"
        )
    return 0


#: Stage order of the profile-round breakdown (client stages, then the
#: server-side allocation and merge work of one protocol round).
PROFILE_STAGES = ("sample-gen", "probe", "model", "collect", "allocate", "merge")


def cmd_profile_round(args: argparse.Namespace) -> int:
    """Per-stage wall-clock breakdown of full protocol rounds.

    Runs ``--rounds`` measured rounds (after ``--warmup`` untimed ones)
    through the vectorized pipeline with stage accumulators threaded
    down to the engine, then prints where the time went: sample
    generation, cache probes, final-model classification, Eq. 3
    collection, ACA allocation, and the Eq. 4/5 merge.  The tool that
    makes future probe-kernel regressions diagnosable at a glance.
    """
    dataset = get_dataset(args.dataset, args.classes)
    config = CoCaConfig(theta=args.theta, lookup_dtype=args.dtype)
    framework = CoCaFramework(
        dataset=dataset,
        model_name=args.model,
        num_clients=args.clients,
        config=config,
        seed=args.seed,
        non_iid_level=args.non_iid,
        longtail_rho=args.longtail,
    )
    for r in range(args.warmup):
        framework.run_round(r)
    timings: dict[str, float] = {}
    round_ms: list[float] = []
    for r in range(args.rounds):
        started = time.perf_counter()
        framework.run_round(args.warmup + r, timings=timings)
        round_ms.append(1e3 * (time.perf_counter() - started))
    rounds_summary = summarize_latencies(round_ms)
    frames = args.rounds * args.clients * config.frames_per_round
    accounted = sum(timings.get(stage, 0.0) for stage in PROFILE_STAGES)
    payload = {
        "scenario": {
            "model": args.model,
            "dataset": dataset.name,
            "clients": args.clients,
            "rounds": args.rounds,
            "frames": frames,
            "seed": args.seed,
            "lookup_dtype": args.dtype,
        },
        "stages_ms": {
            stage: round(1e3 * timings.get(stage, 0.0), 3)
            for stage in PROFILE_STAGES
        },
        "total_ms": round(1e3 * accounted, 3),
        "inferences_per_s": round(frames / accounted, 1) if accounted else None,
        # Whole-round wall clock (stages + unaccounted overhead), the
        # same percentile shape the serve load generator reports.
        "round_ms": rounds_summary.as_row(),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{args.model} on {dataset.name}, {args.clients} clients x "
        f"{args.rounds} rounds x {config.frames_per_round} frames, "
        f"dtype={args.dtype}, seed={args.seed}\n"
    )
    print(f"{'stage':>14s}{'time':>12s}{'share':>9s}")
    for stage in PROFILE_STAGES:
        ms = 1e3 * timings.get(stage, 0.0)
        share = 100.0 * ms / (1e3 * accounted) if accounted else 0.0
        print(f"{stage:>14s}{ms:10.1f}ms{share:8.1f}%")
    print(
        f"\ntotal {1e3 * accounted:.1f}ms for {frames} inferences "
        f"({frames / accounted:,.0f} inf/s)"
        if accounted
        else "\nno stage time recorded"
    )
    print(f"per round: {rounds_summary.format()}")
    return 0


def _serve_config(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
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


def cmd_serve(args: argparse.Namespace) -> int:
    """Bring up the serving cluster from a snapshot and smoke it.

    Starts one worker per shard from ``snapshot``, reports each lane's
    warm-start cost and mapped state, drives ``--requests`` synthetic
    requests through the admission path, and prints the outcome ledger
    — the round-trip proof that the snapshot serves.
    """
    config = _serve_config(args)
    # A fixed-size smoke: the open-loop driver at an effectively
    # unlimited rate fires every request exactly once, as fast as
    # admission allows.
    load = LoadgenConfig(
        rate_per_s=1e6,
        num_requests=args.requests,
        batch=args.batch,
        seed=args.seed,
    )
    report = run_loadgen(config, load)
    lanes = report.frontend_stats.get("lanes", [])
    payload = {
        "snapshot": args.snapshot,
        "mode": config.mode,
        "workers": config.num_workers,
        "queue_depth": config.queue_depth,
        "deadline_ms": config.deadline_ms,
        "lanes": lanes,
        "smoke": report.as_json(),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{config.num_workers} {config.mode} worker(s) over {args.snapshot} "
        f"(queue depth {config.queue_depth}, deadline {config.deadline_ms}ms)"
    )
    for lane in lanes:
        info = lane.get("worker", {})
        print(
            f"  shard {lane['shard']}: pid {info.get('pid')}, "
            f"warm start {info.get('init_ms', 0.0):.1f}ms, "
            f"epoch {info.get('epoch')}, served {lane['served']}"
        )
    print(
        f"smoke: {report.success}/{report.offered} ok, "
        f"{report.timeout} timeout, {report.shed} shed, "
        f"hit ratio {100 * report.hit_ratio:.1f}%"
    )
    if report.latency is not None:
        print(f"latency: {report.latency.format()}")
    return 0 if report.success == report.offered else 1


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive the serving cluster at a target rate and report percentiles.

    Open loop with ``--rate`` (Poisson arrivals; adds the M/D/1
    queue-wait cross-check when a single worker serves), closed loop
    with ``--concurrency`` sessions otherwise.
    """
    config = _serve_config(args)
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
    report = run_loadgen(config, load)
    payload = report.as_json()
    payload["workers"] = config.num_workers
    payload["mode"] = f"{report.mode}/{config.mode}"
    analytic = None
    if (
        args.rate is not None
        and config.num_workers == 1
        and report.service is not None
        and report.duration_s > 0
    ):
        offered_rate = report.offered / report.duration_s
        try:
            rho, wait = analytic_wait_ms(offered_rate, report.service.mean_ms)
            analytic = {"utilization": round(rho, 3),
                        "predicted_wait_ms": round(wait, 3)}
        except ValueError:
            analytic = {"utilization": None, "predicted_wait_ms": None}
        payload["analytic"] = analytic
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{report.mode} over {config.num_workers} {config.mode} worker(s): "
        f"{report.offered} requests in {report.duration_s:.2f}s "
        f"({report.throughput_rps:.0f} ok/s)"
    )
    print(
        f"outcomes: {report.success} ok, {report.timeout} timeout, "
        f"{report.shed} shed ({report.retries} retries, "
        f"{report.late_responses} late)"
    )
    for label, summary in (("latency", report.latency),
                           ("queue wait", report.wait),
                           ("service", report.service)):
        if summary is not None:
            print(f"{label:>10s}: {summary.format()}")
    if analytic is not None and analytic["predicted_wait_ms"] is not None:
        assert report.wait is not None
        print(
            f"  analytic: M/D/1 at rho={analytic['utilization']} predicts "
            f"{analytic['predicted_wait_ms']}ms mean wait "
            f"(measured {report.wait.mean_ms:.3f}ms)"
        )
    print(f"hit ratio: {100 * report.hit_ratio:.1f}%")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the repo-aware static invariant checker (see repro.lint)."""
    from pathlib import Path

    from repro.lint import (
        lint_paths,
        load_all_rules,
        load_baseline,
        write_baseline,
    )
    from repro.lint.baseline import Baseline
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
    root = find_repo_root(paths[0])
    baseline_path = (
        Path(args.baseline) if args.baseline else root / "lint_baseline.json"
    )
    baseline = (
        Baseline.empty() if args.no_baseline else load_baseline(baseline_path)
    )
    rule_ids = (
        [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.rules
        else None
    )
    report = lint_paths(paths, baseline=baseline, rule_ids=rule_ids, root=root)

    if args.update_baseline:
        write_baseline(baseline_path, report.all_unsuppressed)
        print(
            f"baseline updated: {len(report.all_unsuppressed)} finding(s) "
            f"written to {baseline_path}"
        )
        return 0

    if args.json:
        print(json.dumps(
            {
                "files_scanned": report.files_scanned,
                "new": [f.as_dict() for f in report.new],
                "baselined": [f.as_dict() for f in report.baselined],
                "suppressed": len(report.suppressed),
                "ok": report.ok,
            },
            indent=2,
        ))
        return 0 if report.ok else 1

    for finding in report.new:
        print(finding.format())
    summary = (
        f"{report.files_scanned} file(s) scanned: "
        f"{len(report.new)} new, {len(report.baselined)} baselined, "
        f"{len(report.suppressed)} suppressed"
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
        store = MappedTableStore(args.path, verify=args.verify)
    except (SnapshotFormatError, OSError) as exc:
        print(f"cannot open snapshot {args.path}: {exc}", file=sys.stderr)
        return 1
    manifest = store.manifest
    with store:
        meta_names = sorted(store._meta)
        references = sorted(store.references())
    payload = {
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
        "meta_arrays": meta_names,
        "references": references,
        "verified": bool(args.verify),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{store.path}: repro-snapshot v{manifest.layout_version}, "
        f"epoch {manifest.epoch}, "
        f"{manifest.num_classes} classes x {manifest.num_layers} layers "
        f"x {manifest.dim} dim, dtype {manifest.dtype}"
        + (" (checksums verified)" if args.verify else "")
    )
    print(f"\n{'shard':28s}{'layers':>10s}{'bytes':>12s}  sha256")
    for spec in manifest.shards:
        print(
            f"{spec.file:28s}{f'{spec.layer_lo}-{spec.layer_hi - 1}':>10s}"
            f"{spec.nbytes:12,d}  {spec.sha256[:12]}…"
        )
    print(f"\nmeta arrays: {', '.join(meta_names)}")
    return 0


def cmd_store_diff(args: argparse.Namespace) -> int:
    """Row-level difference between two snapshots of one table."""
    from repro.store import (
        MappedTableStore,
        SnapshotFormatError,
        diff_tables,
        full_rows_nbytes,
    )

    try:
        with MappedTableStore(args.base) as base_store, MappedTableStore(
            args.target
        ) as target_store:
            geometry = (
                base_store.num_classes,
                base_store.num_layers,
                base_store.dim,
            )
            target_geometry = (
                target_store.num_classes,
                target_store.num_layers,
                target_store.dim,
            )
            if geometry != target_geometry:
                print(
                    f"snapshots differ in geometry: {geometry} vs "
                    f"{target_geometry}",
                    file=sys.stderr,
                )
                return 2
            base_epoch, target_epoch = base_store.epoch, target_store.epoch
            if base_epoch > target_epoch:
                base_epoch = target_epoch = 0  # diffing backwards in time
            delta = diff_tables(
                base_store.as_table(),
                target_store.as_table(),
                base_epoch=base_epoch,
                target_epoch=target_epoch,
            )
    except (SnapshotFormatError, OSError) as exc:
        print(f"cannot diff snapshots: {exc}", file=sys.stderr)
        return 1
    num_classes, num_layers, dim = geometry
    full_nbytes = full_rows_nbytes(num_classes, num_layers, dim)
    payload = {
        "base": str(args.base),
        "target": str(args.target),
        "base_epoch": base_store.epoch,
        "target_epoch": target_store.epoch,
        "entry_rows_changed": int(delta.entry_rows.size),
        "freq_rows_changed": int(delta.freq_rows.size),
        "classes": num_classes,
        "delta_nbytes": delta.nbytes,
        "full_copy_nbytes": full_nbytes,
        "bytes_ratio": round(delta.nbytes / full_nbytes, 4),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{args.base} (epoch {base_store.epoch}) -> {args.target} "
        f"(epoch {target_store.epoch}):"
    )
    print(
        f"  {delta.entry_rows.size}/{num_classes} entry rows changed, "
        f"{delta.freq_rows.size}/{num_classes} freq rows changed"
    )
    print(
        f"  delta would ship {delta.nbytes:,d} bytes "
        f"({100 * payload['bytes_ratio']:.1f}% of a {full_nbytes:,d}-byte "
        "full copy)"
    )
    return 0


def cmd_sweep_theta(args: argparse.Namespace) -> int:
    scenario = _build_scenario(args)
    thetas = [float(t) for t in args.thetas.split(",") if t.strip()]
    print(f"{'theta':>7s}{'latency':>10s}{'accuracy':>10s}{'hit ratio':>11s}")
    for theta in thetas:
        runner = CoCaRunner(fresh_scenario(scenario), config=CoCaConfig(theta=theta))
        summary = runner.run(args.rounds, warmup_rounds=args.warmup).summary()
        print(
            f"{theta:7.3f}{summary.avg_latency_ms:9.2f}ms"
            f"{100 * summary.accuracy:9.1f}%{100 * summary.hit_ratio:10.1f}%"
        )
    return 0


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="ucf101")
    parser.add_argument("--classes", type=int, default=None,
                        help="subset size (default: full dataset)")
    parser.add_argument("--model", default="resnet101",
                        choices=available_models())
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--non-iid", dest="non_iid", type=float, default=1.0)
    parser.add_argument("--longtail", type=float, default=1.0,
                        help="imbalance ratio rho (1 = uniform)")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--theta", type=float, default=0.05)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CoCa reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="list models, datasets and methods")
    info.set_defaults(func=cmd_info)

    compare = sub.add_parser("compare", help="run methods head-to-head")
    _add_scenario_args(compare)
    compare.add_argument("--methods", default="edge,coca",
                         help="comma-separated (see `info`)")
    compare.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of a table")
    compare.set_defaults(func=cmd_compare)

    sweep = sub.add_parser("sweep-theta", help="CoCa threshold sweep")
    _add_scenario_args(sweep)
    sweep.add_argument("--thetas", default="0.03,0.05,0.07")
    sweep.set_defaults(func=cmd_sweep_theta)

    cluster = sub.add_parser(
        "cluster", help="run a sharded multi-node cluster deployment"
    )
    _add_scenario_args(cluster)
    cluster.add_argument("--shards", type=int, default=4,
                         help="shard (= node) count")
    cluster.add_argument("--sync-interval", dest="sync_interval", type=int,
                         default=1, help="rounds between cross-shard syncs")
    cluster.add_argument("--policy", default="hash",
                         choices=ASSIGNMENT_POLICIES,
                         help="client -> node assignment policy")
    cluster.add_argument("--frames", type=int, default=60,
                         help="frames per round (F)")
    cluster.add_argument("--service-ms", dest="service_ms", type=float,
                         default=1.35, help="per-request node service time")
    cluster.add_argument("--merge-ms", dest="merge_ms", type=float,
                         default=0.5, help="per-upload-piece merge time")
    cluster.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of a table")
    cluster.set_defaults(func=cmd_cluster)

    profile = sub.add_parser(
        "profile-round",
        help="per-stage timing breakdown of full protocol rounds",
    )
    _add_scenario_args(profile)
    profile.add_argument("--dtype", default="float32",
                         choices=("float32", "float64"),
                         help="cache lookup dtype")
    profile.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of a table")
    profile.set_defaults(func=cmd_profile_round)

    def _add_serve_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("snapshot", help="table snapshot directory to serve")
        p.add_argument("--workers", type=int, default=2,
                       help="shard worker count (one shard per worker)")
        p.add_argument("--mode", default="thread", choices=SERVE_MODES,
                       help="worker execution mode: thread = on the "
                            "front-end's event loop, process = one process "
                            "per shard")
        p.add_argument("--queue-depth", dest="queue_depth", type=int,
                       default=32, help="per-shard admission queue bound")
        p.add_argument("--deadline-ms", dest="deadline_ms", type=float,
                       default=250.0, help="per-request deadline")
        p.add_argument("--retries", type=int, default=3,
                       help="max retries after shed (exponential backoff)")
        p.add_argument("--service-floor-ms", dest="service_floor_ms",
                       type=float, default=0.0,
                       help="emulated per-request device service time")
        p.add_argument("--miss-ms", dest="miss_ms", type=float, default=0.0,
                       help="emulated full-model time per missed frame")
        p.add_argument("--alpha", type=float, default=0.5,
                       help="Eq. 1 cross-layer accumulation factor")
        p.add_argument("--theta", type=float, default=0.05,
                       help="Eq. 2 early-exit threshold")
        p.add_argument("--salt", type=int, default=0,
                       help="class -> shard router salt")
        p.add_argument("--batch", type=int, default=16,
                       help="frames per request")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")

    serve = sub.add_parser(
        "serve",
        help="start shard workers from a snapshot and smoke the "
             "admission path",
    )
    _add_serve_args(serve)
    serve.add_argument("--requests", type=int, default=32,
                       help="synthetic smoke requests to round-trip")
    serve.set_defaults(func=cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive the serving cluster at a target rate and report "
             "wall-clock percentiles",
    )
    _add_serve_args(loadgen)
    loadgen.add_argument("--rate", type=float, default=None,
                         help="open-loop arrival rate (requests/s); "
                              "omit for closed loop")
    loadgen.add_argument("--requests", type=int, default=200,
                         help="open-loop request count")
    loadgen.add_argument("--concurrency", type=int, default=8,
                         help="closed-loop client sessions")
    loadgen.add_argument("--duration", type=float, default=2.0,
                         help="closed-loop drive seconds")
    loadgen.add_argument("--noise", type=float, default=0.2,
                         help="query jitter around stored centroids")
    loadgen.add_argument("--miss-fraction", dest="miss_fraction",
                         type=float, default=0.0,
                         help="fraction of pure-noise (miss) frames")
    loadgen.add_argument("--no-retry", dest="no_retry", action="store_true",
                         help="report sheds instead of retrying them")
    loadgen.set_defaults(func=cmd_loadgen)

    lint = sub.add_parser(
        "lint", help="run the repo-aware static invariant checker"
    )
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to scan (default: src)")
    lint.add_argument("--baseline", default=None,
                      help="baseline file (default: <root>/lint_baseline.json)")
    lint.add_argument("--no-baseline", dest="no_baseline",
                      action="store_true",
                      help="ignore the baseline: report all findings as new")
    lint.add_argument("--update-baseline", dest="update_baseline",
                      action="store_true",
                      help="rewrite the baseline from current findings")
    lint.add_argument("--rules", default=None,
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--list-rules", dest="list_rules", action="store_true",
                      help="list registered rules and exit")
    lint.add_argument("--json", action="store_true",
                      help="emit machine-readable JSON instead of text")
    lint.set_defaults(func=cmd_lint)

    store = sub.add_parser(
        "store", help="inspect and diff table snapshot stores"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_inspect = store_sub.add_parser(
        "inspect", help="describe a snapshot directory's manifest"
    )
    store_inspect.add_argument("path", help="snapshot directory")
    store_inspect.add_argument("--verify", action="store_true",
                               help="recompute every array checksum "
                                    "(reads all shard bytes)")
    store_inspect.add_argument("--json", action="store_true",
                               help="emit machine-readable JSON")
    store_inspect.set_defaults(func=cmd_store_inspect)

    store_diff = store_sub.add_parser(
        "diff", help="row-level difference between two snapshots"
    )
    store_diff.add_argument("base", help="older snapshot directory")
    store_diff.add_argument("target", help="newer snapshot directory")
    store_diff.add_argument("--json", action="store_true",
                            help="emit machine-readable JSON")
    store_diff.set_defaults(func=cmd_store_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
