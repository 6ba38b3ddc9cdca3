"""Command-line entry points: run, synth, rank, rank-diff.

Exit codes: 0 on success, 1 on a configuration error (bad arguments or a
bad config file), 2 on a runtime error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from .bench import ConfigError, emit_report, load_run_config, load_synth_spec, run_experiment
from .data import existing_file, is_integer_of_at_least, load_csv, normalize_minmax
from .ranking import (
    attribute_scores,
    compute_centroid,
    export_rank,
    fit_reducer,
    partition_labels,
    rank_diff,
    write_rank_diff_csv,
)
from .synth import generate, save_synth


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="outcentr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment matrix from a config file")
    run.add_argument("--config", required=True, help="run config file (INI grammar)")
    run.add_argument("--seed", type=int, action="append", help="override config seeds (repeatable)")
    run.add_argument("--t-fraction", type=float, help="override the selection fraction")
    run.add_argument("--transductive", action="store_true", help="threshold on the scored set itself")
    run.add_argument("--label-budget", type=float, help="fraction of labels used per class")
    run.add_argument("--save-model", metavar="DIR", help="write each seed's outcentr rank CSV here")
    run.add_argument("--out", help="override the output directory")
    run.set_defaults(handler=_cmd_run)

    synth = sub.add_parser("synth", help="generate a synthetic dataset from a spec file")
    synth.add_argument("--spec", required=True, help="spec file with a [synth] section")
    synth.add_argument("--out", required=True, help="output directory")
    synth.set_defaults(handler=_cmd_synth)

    rank = sub.add_parser("rank", help="rank attributes of a labeled CSV and export")
    rank.add_argument("--data", required=True, help="input CSV")
    rank.add_argument("--label", required=True, help="binary label column name")
    rank.add_argument("--out", required=True, help="rank export CSV path")
    rank.add_argument("--t-fraction", type=float, default=0.10)
    rank.add_argument("--seed", type=int, default=0)
    rank.add_argument("--label-budget", type=float, default=1.0)
    rank.add_argument("--positive-token", default="1")
    rank.add_argument("--negative-token", default="0")
    rank.add_argument("--scores-out", help="also write per-class attribute-score report here")
    rank.add_argument(
        "--absolute-deviation",
        action="store_true",
        help="report mean absolute instead of signed deviations",
    )
    rank.set_defaults(handler=_cmd_rank)

    diff = sub.add_parser("rank-diff", help="compare two rank exports")
    diff.add_argument("rank_a", help="first rank export CSV")
    diff.add_argument("rank_b", help="second rank export CSV")
    diff.add_argument("--out", help="write the full diff as CSV")
    diff.add_argument("--top", type=int, default=10, help="rows to print")
    diff.set_defaults(handler=_cmd_rank_diff)
    return parser


def _cmd_run(args) -> int:
    cfg = load_run_config(args.config)
    updates = {}
    if args.seed:
        updates["seeds"] = tuple(args.seed)
    if args.t_fraction is not None:
        updates["t_fraction"] = args.t_fraction
    if args.transductive:
        updates["transductive"] = True
    if args.label_budget is not None:
        updates["label_budget"] = args.label_budget
    if args.save_model:
        updates["save_model_dir"] = args.save_model
    if args.out:
        updates["output_dir"] = args.out
    if updates:
        cfg = replace(cfg, **updates)
    report = run_experiment(cfg)
    paths = emit_report(report, cfg.output_dir)
    for path in paths:
        print(path)
    return 0


def _cmd_synth(args) -> int:
    spec = load_synth_spec(args.spec)
    dataset, informative = generate(spec)
    for path in save_synth(dataset, informative, args.out):
        print(path)
    return 0


def _cmd_rank(args) -> int:
    for flag, value in (("--t-fraction", args.t_fraction), ("--label-budget", args.label_budget)):
        if not 0.0 < value <= 1.0:
            raise ConfigError(f"{flag} must be in (0, 1], got {value}")
    if not is_integer_of_at_least(args.seed, 0):
        raise ConfigError(f"--seed must be an integer >= 0, got {args.seed}")
    existing_file(args.data, "data file", ConfigError)
    data = load_csv(
        args.data,
        label_column=args.label,
        positive_token=args.positive_token,
        negative_token=args.negative_token,
    )
    data = normalize_minmax(data)
    rank = fit_reducer(
        data, ratio=args.label_budget, t_fraction=args.t_fraction, seed=args.seed
    )
    export_rank(rank, args.out)
    print(args.out)
    if args.scores_out:
        _write_attribute_scores(data, args.scores_out, args.absolute_deviation)
        print(args.scores_out)
    return 0


def _write_attribute_scores(data, path, absolute: bool) -> None:
    vs_outlier, vs_inlier = (
        attribute_scores(data, range(data.n), compute_centroid(data, rows), absolute)
        for rows in partition_labels(data)
    )
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["attribute", "score_vs_outlier_centroid", "score_vs_inlier_centroid"])
        for name, a, b in zip(data.attribute_names, vs_outlier, vs_inlier):
            writer.writerow([name, repr(float(a)), repr(float(b))])


def _cmd_rank_diff(args) -> int:
    if not is_integer_of_at_least(args.top, 0):
        raise ConfigError(f"--top must be an integer >= 0, got {args.top}")
    for path in (args.rank_a, args.rank_b):
        existing_file(path, "rank file", ConfigError)
    entries = rank_diff(args.rank_a, args.rank_b)
    print(f"{'attribute':<24} {'rank_a':>6} {'rank_b':>6} {'delta':>6}")
    for entry in entries[: args.top]:
        rank_a = "-" if entry.rank_a is None else entry.rank_a
        rank_b = "-" if entry.rank_b is None else entry.rank_b
        delta = "-" if entry.rank_delta is None else f"{entry.rank_delta:+d}"
        print(f"{entry.attribute:<24} {rank_a:>6} {rank_b:>6} {delta:>6}")
    if args.out:
        write_rank_diff_csv(entries, args.out)
        print(args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps anything to exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
