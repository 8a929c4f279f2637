"""Command line: ``python3 -m bench {run,all,noise,compare}`` (see README)."""

from __future__ import annotations

import argparse
import sys

from bench import ROOT


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="one workload, one JSON result line")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)

    every = commands.add_parser("all", help="every workload, untraced and traced")
    every.add_argument("--seed", type=int, default=1)
    every.add_argument("--seconds", type=float, default=None)

    noise = commands.add_parser("noise", help="acceptance: spread and set-to-set gap")
    noise.add_argument("--runs", type=int, default=5)
    noise.add_argument("--sets", type=int, default=2)
    noise.add_argument("--seconds", type=float, default=None)
    noise.add_argument("--workload", action="append", default=None)

    compare = commands.add_parser("compare", help="two result sets, metric by metric")
    compare.add_argument("base")
    compare.add_argument("new")

    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        # Nothing to measure: the benchmark drives the program in src/.
        print(f"bench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from bench import report, runner

    if args.command == "run":
        return runner.command_run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.command == "all":
        return runner.command_all(args.seed, args.seconds)
    if args.command == "noise":
        return report.command_noise(args.runs, args.sets, args.seconds, args.workload)
    return report.command_compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
