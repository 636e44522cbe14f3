"""Command-line entry points: gen-workload, train, evaluate, compare."""

from __future__ import annotations

import argparse
import sys

from .experiment import (SCHEDULER_NAMES, cmd_compare, cmd_evaluate, cmd_gen_workload,
                         cmd_train, load_config)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="experiment config file (INI)")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--out", required=True, help="output directory (or file for gen-workload)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mecsched",
        description="Simulate DAG task offloading onto edge devices and compare schedulers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-workload", help="write a workload file")
    _add_common(p)

    p = sub.add_parser("train", help="train the learned scheduler")
    _add_common(p)

    p = sub.add_parser("evaluate", help="evaluate one scheduler")
    _add_common(p)
    p.add_argument("--checkpoint", default=None, help="agent checkpoint (.npz)")
    p.add_argument("--scheduler", default="dqn", choices=SCHEDULER_NAMES)

    p = sub.add_parser("compare", help="run all configured schedulers on shared workloads")
    _add_common(p)
    p.add_argument("--checkpoint", default=None,
                   help="reuse a trained checkpoint instead of training in place")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        cfg = load_config(args.config, overrides)
        if args.command == "gen-workload":
            graphs = cmd_gen_workload(cfg, args.out)
            print(f"wrote {len(graphs)} applications to {args.out}")
        elif args.command == "train":
            paths = cmd_train(cfg, args.out)
            print(f"checkpoint: {paths['checkpoint']}")
            print(f"learning curve: {paths['curve']}")
        elif args.command == "evaluate":
            report = cmd_evaluate(cfg, args.out, checkpoint=args.checkpoint,
                                  scheduler=args.scheduler)
            print(f"{report.scheduler}: avg makespan {report.mean_makespan:.6f} s, "
                  f"violations {report.mean_violation_rate:.2f} %")
        elif args.command == "compare":
            reports = cmd_compare(cfg, args.out, checkpoint=args.checkpoint)
            for r in reports:
                print(f"lam={r.lam:g} {r.scheduler}: avg makespan "
                      f"{r.mean_makespan:.6f} s, violations {r.mean_violation_rate:.2f} %")
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
