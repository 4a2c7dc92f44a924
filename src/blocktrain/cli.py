"""Command line entry points: ``blocktrain run``, ``blocktrain compare`` and
``blocktrain sweep``."""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .cluster import TrainingError
from .experiment import (
    FINAL_HEADER,
    ConfigError,
    ExperimentConfig,
    parse_lines,
    run_experiment,
    shadow_study,
    write_run_artifacts,
)
from .metrics import curve_spread
from .sync import STRATEGIES

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocktrain",
        description="Simulated block-synchronized data-parallel training runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment and write CSV artifacts")
    run_p.add_argument("--config", required=True, help="path to a key=value config file")
    run_p.add_argument("--out", required=True, help="output directory for artifacts")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument(
        "--single-thread",
        action="store_true",
        help="train every worker in order on this thread, with no helper threads "
        "(same results)",
    )
    cmp_p = sub.add_parser("compare", help="summarize finished runs against bmuf")
    cmp_p.add_argument("run_dirs", nargs="+", help="run directories holding final.csv")
    sweep_p = sub.add_parser("sweep", help="run the shadow-model study over seeds 0..N-1")
    sweep_p.add_argument("--config", required=True, help="path to a key=value config file")
    sweep_p.add_argument("--seeds", type=int, default=10, help="number of seeds (default 10)")
    sweep_p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="key=value",
        help="override a config field, as a config-file line would (repeatable)",
    )
    return parser


def _read_text(path: str | Path) -> str:
    """The text of ``path``; an OSError naming the file if it does not decode."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_text(_read_text(args.config))
    if args.seed is not None:
        config = config.with_seed(args.seed)
    result = run_experiment(config, threaded=not args.single_thread)
    write_run_artifacts(result, Path(args.out))
    for strategy in STRATEGIES:
        fer = result.final_test_fer[strategy]
        print(f"{strategy}: final test fer {fer * 100:.2f}%")
    return 0


def _read_final(run_dir: Path) -> dict[str, float]:
    path = run_dir / "final.csv"
    reader = csv.reader(_read_text(path).splitlines())
    header = next(reader, None)
    if header != FINAL_HEADER.split(","):
        raise OSError(f"{path}: unexpected header {header}")
    fers = {}
    for row in filter(None, reader):
        try:
            strategy, raw = row
            fer = float(raw)
        except ValueError:
            raise OSError(f"{path}: malformed row {row}") from None
        if strategy not in STRATEGIES:
            raise OSError(f"{path}: malformed row {row}: unknown strategy")
        if not 0.0 <= fer <= 1.0:  # nan fails this too
            raise OSError(f"{path}: malformed row {row}: FER not in [0, 1]")
        if strategy in fers:
            raise OSError(f"{path}: malformed row {row}: duplicate strategy")
        fers[strategy] = fer
    return fers


def _cmd_compare(args: argparse.Namespace) -> int:
    for raw_dir in args.run_dirs:
        run_dir = Path(raw_dir)
        fers = _read_final(run_dir)
        if "bmuf" not in fers:
            raise OSError(f"{run_dir / 'final.csv'}: no bmuf baseline row")
        baseline = fers["bmuf"]
        print(f"run: {run_dir}")
        print("  strategy  test_fer  vs_bmuf")
        for strategy in STRATEGIES:
            if strategy not in fers:
                continue
            fer = fers[strategy]
            reduction = 0.0 if baseline == 0.0 else (baseline - fer) / baseline * 100.0
            print(f"  {strategy:<8s}  {fer * 100:>7.2f}%  {reduction:>6.2f}%")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    overrides = parse_lines(args.set)
    if "seed" in overrides:
        raise ConfigError("seed", "the sweep's seeds come from --seeds")
    config = replace(ExperimentConfig.from_text(_read_text(args.config)), **overrides)
    seeds = range(args.seeds)
    study = shadow_study(config, seeds)
    print(f"== {config.model} ==")
    print("seed  bmuf_fer  ma_fer  ema_fer  ma_spread  ema_spread  secs")
    for seed, run in zip(seeds, study.runs):
        if isinstance(run, TrainingError):
            print(f"{seed:<4d}  error: {run}")
            continue
        final = run.final_test_fer
        spread_ma = curve_spread(run.test_curve, "ma")
        spread_ema = curve_spread(run.test_curve, "ema")
        print(
            f"{seed:<4d}  {final['bmuf']:.4f}    {final['ma']:.4f}  "
            f"{final['ema']:.4f}   {spread_ma:.5f}    {spread_ema:.5f}     {run.seconds:.1f}"
        )
    n = len(seeds)
    print(
        f"ema_beats_bmuf: {study.ema_beats_bmuf}/{n}   "
        f"ema_steadier_than_ma: {study.ema_steadier_than_ma}/{n}"
    )
    print(f"failed_seeds: {study.failed_seeds}/{n}")
    return 3 if study.failed_seeds else 0


_COMMANDS = {"run": _cmd_run, "compare": _cmd_compare, "sweep": _cmd_sweep}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
