"""Command-line entry points: run, bench, her, report."""

from __future__ import annotations

import argparse
import sys

from .engine import EngineConfig, ObjectiveError
from .harness import (
    ConfigError,
    ExperimentConfig,
    load_experiment_config,
    report,
    run_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hypbo",
        description="Hypothesis-guided Bayesian optimization benchmark harness",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment described by a config file")
    run_p.add_argument("config", help="INI experiment config")

    bench = sub.add_parser("bench", help="quick benchmark without a config file")
    bench.add_argument("--objective", required=True, help="registry key, e.g. sphere:2")
    bench.add_argument(
        "--hypothesis",
        action="append",
        default=[],
        help="quality key (good/weak/poor), chemistry kind, or JSON path; repeatable",
    )
    bench.add_argument("--trials", type=int, default=20)
    bench.add_argument("--iters", type=int, default=50, help="evaluations after init")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--n-init", type=int, default=5)
    bench.add_argument(
        "--methods",
        default="hypbo,vanilla_bo,random_search",
        help="comma-separated subset of hypbo,vanilla_bo,random_search",
    )
    bench.add_argument("--out", default="results/bench")

    her = sub.add_parser("her", help="fit the chemistry oracle and optimize against it")
    her.add_argument("--data", help="CSV of compositions + HER measurements")
    her.add_argument(
        "--standin",
        type=int,
        default=None,
        metavar="N",
        help="generate an N-row synthetic dataset instead of reading --data",
    )
    her.add_argument(
        "--hypotheses",
        default="virtual_chemists",
        help="chemistry hypothesis kind (default: virtual_chemists)",
    )
    her.add_argument("--trials", type=int, default=5)
    her.add_argument("--iters", type=int, default=60)
    her.add_argument("--seed", type=int, default=0)
    her.add_argument("--out", default="results/her")

    rep = sub.add_parser("report", help="regenerate summary and plot from traces")
    rep.add_argument("output_dir")
    return p


def _cmd_run(args) -> int:
    cfg = load_experiment_config(args.config)
    summary = run_experiment(cfg)
    _print_summary(summary, cfg.output_dir)
    return EXIT_OK


def _engine_config(**kw) -> EngineConfig:
    try:
        return EngineConfig(**kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_bench(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    cfg = ExperimentConfig(
        objective=args.objective,
        hypotheses=list(args.hypothesis),
        methods=methods,
        trials=args.trials,
        engine=_engine_config(n_init=args.n_init, i_max=args.iters, seed=args.seed),
        output_dir=args.out,
    )
    summary = run_experiment(cfg)
    _print_summary(summary, cfg.output_dir)
    return EXIT_OK


def _cmd_her(args) -> int:
    if args.standin is None and not args.data:
        raise ConfigError("her needs --data <csv> or --standin N")
    objective = "standin" if args.standin is not None else args.data
    cfg = ExperimentConfig(
        objective=objective,
        hypotheses=[args.hypotheses],
        methods=("hypbo", "vanilla_bo", "random_search"),
        trials=args.trials,
        engine=_engine_config(n_init=5, i_max=args.iters, seed=args.seed),
        output_dir=args.out,
        standin_rows=args.standin if args.standin is not None else 200,
    )
    summary = run_experiment(cfg)
    _print_summary(summary, cfg.output_dir)
    return EXIT_OK


def _cmd_report(args) -> int:
    summary = report(args.output_dir)
    _print_summary(summary, args.output_dir)
    return EXIT_OK


def _print_summary(summary, out_dir: str) -> None:
    print(f"artifacts written to {out_dir}")
    for name, m in summary.methods.items():
        print(
            f"  {name}: mean final simple regret = "
            f"{float(m.mean_simple_regret[-1]):.6g}"
        )
    for label, comp in summary.comparisons.items():
        if "error" in comp:
            print(f"  {label}: not tested ({comp['error']})")
        else:
            print(
                f"  {label}: W={comp['statistic']:.1f} p={comp['p_value']:.4g}"
                f" significant={comp['significant']}"
                f" (bonferroni: {comp['significant_bonferroni']})"
            )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "bench": _cmd_bench,
        "her": _cmd_her,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ObjectiveError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
