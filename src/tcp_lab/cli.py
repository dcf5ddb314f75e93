"""Command-line harness.

Subcommands: ``ingest`` converts external CI histories into the canonical
format, ``evaluate`` replays configured approaches over histories and
persists raw values plus aggregates, ``report`` renders tables, boxplot
data, and critical-difference data, and ``prioritize`` prints the order one
approach would run a given cycle in.

Exit codes: 0 success, 1 partial failure (some project failed while others
completed), 2 usage or input error. Every input error is an
:class:`~tcp_lab.model.InputError` (or an ``OSError``); :func:`main` alone
turns it into one ``error:`` line on stderr. Any other exception is a bug and
keeps its traceback. The ``TCP_LAB_SEED`` environment variable overrides the
master seed.

Each command imports the modules it runs when it runs, so that no command
pays for another's imports (numpy above all).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from tcp_lab.model import (
    ConfigError,
    FlattenPolicy,
    InputError,
    ProjectHistory,
    flatten,
    read_json,
)

SEED_ENV_VAR = "TCP_LAB_SEED"


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _cmd_ingest(args: argparse.Namespace) -> int:
    from tcp_lab.dataset import (
        ColumnMapping,
        ingest,
        join_build_times,
        read_build_times,
        write_canonical,
    )

    mapping = ColumnMapping.from_dict(read_json(args.mapping))
    project = args.project or Path(args.out).stem
    result = ingest(args.input, mapping, project, delimiter=args.delimiter)
    history = result.history
    mismatches = 0
    if args.build_times:
        table = read_build_times(args.build_times)
        history, mismatches = join_build_times(history, table)
    write_canonical(history, args.out)
    executions = sum(len(c.executions) for c in history.cycles)
    print(
        f"project={history.project} cycles={len(history.cycles)} "
        f"executions={executions} rejected_rows={result.rejected_rows} "
        f"build_time_mismatches={mismatches} out={args.out}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from tcp_lab.evaluation import EvaluationConfig, run_evaluation, write_outcomes

    if args.jobs < 1:
        raise ConfigError(f"--jobs must be a positive integer, got {args.jobs}")
    config_path = Path(args.config)
    config = EvaluationConfig.from_dict(read_json(config_path), base_dir=config_path.parent)
    env_seed = _env_seed()
    if env_seed is not None:
        config = dataclasses.replace(config, seed=env_seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the replay
    outcomes = run_evaluation(config, jobs=args.jobs)
    write_outcomes(out, config, outcomes)
    failed = False
    for outcome in outcomes:
        if outcome.error:
            failed = True
            print(f"{outcome.project}: FAILED ({outcome.error})", file=sys.stderr)
        else:
            print(
                f"{outcome.project}: cycles={outcome.cycles} "
                f"failed_cycles={outcome.failed_cycles} "
                f"approaches={len(outcome.approaches)}"
            )
    print(f"results written to {args.out}")
    return 1 if failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from tcp_lab.report import write_report

    for path in write_report(args.raw, args.out, fmt=args.format, alpha=args.alpha):
        print(path)
    return 0


def _cmd_prioritize(args: argparse.Namespace) -> int:
    from tcp_lab.combinators import build
    from tcp_lab.dataset import attach_sources, filter_for_evaluation, read_canonical

    spec = args.preset if args.spec is None else read_json(args.spec)
    history = read_canonical(args.history)
    target = next((i for i, c in enumerate(history.cycles) if c.index == args.cycle), None)
    sources = {}
    if args.sources:
        # the one ranked suite reads only its own cases' sources
        ranked = history.cycles[target : target + 1] if target is not None else ()
        sources = attach_sources(ProjectHistory(history.project, ranked), args.sources).sources
    env_seed = _env_seed()
    seed = args.seed if args.seed is not None else (env_seed if env_seed is not None else 0)
    approach = build(spec, sources=sources, master_seed=seed)
    if target is None:
        raise ConfigError(f"UNKNOWN_CYCLE: no cycle with index {args.cycle}")
    # the earlier cycles that evaluate observes: not those it drops as too small
    earlier = ProjectHistory(history.project, history.cycles[:target])
    for cycle in filter_for_evaluation(earlier).cycles:
        approach.observe(cycle.executions)
    ranking = approach.rank(list(history.cycles[target].suite))
    for case in flatten(ranking, FlattenPolicy.STABLE):
        print(case)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcp-lab",
        description="Test case prioritization toolkit: ingest CI histories, "
        "replay prioritization approaches, and render comparison reports "
        "with statistical tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="convert a dataset to the canonical format")
    p_ingest.add_argument("--in", dest="input", required=True, help="source file or directory")
    p_ingest.add_argument("--mapping", required=True, help="JSON column mapping file")
    p_ingest.add_argument("--out", required=True, help="canonical history file to write")
    p_ingest.add_argument("--project", help="project name (default: output stem)")
    p_ingest.add_argument("--delimiter", default=",", help="one-character delimiter (default ,)")
    p_ingest.add_argument("--build-times", help="job_id,seconds table to join")
    p_ingest.set_defaults(func=_cmd_ingest)

    p_eval = sub.add_parser("evaluate", help="replay approaches and collect metrics")
    p_eval.add_argument("--config", required=True, help="JSON evaluation config")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--jobs", type=int, default=1, help="projects to run in parallel")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_report = sub.add_parser("report", help="render tables and plot data")
    p_report.add_argument("--raw", required=True, help="evaluate output directory")
    p_report.add_argument("--format", choices=("csv", "md"), default="csv")
    p_report.add_argument("--out", required=True, help="report output directory")
    p_report.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p_report.set_defaults(func=_cmd_report)

    p_prio = sub.add_parser("prioritize", help="print one cycle's prioritized order")
    p_prio.add_argument("--history", required=True, help="canonical history file")
    group = p_prio.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="JSON approach spec file")
    group.add_argument("--preset", help="preset name (e.g. P1.2)")
    p_prio.add_argument("--cycle", type=int, required=True, help="cycle index to prioritize")
    p_prio.add_argument("--sources", help="checkout directory for code-distance approaches")
    p_prio.add_argument("--seed", type=int, help="master seed (default 0)")
    p_prio.set_defaults(func=_cmd_prioritize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        return args.func(args)
    except (InputError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
