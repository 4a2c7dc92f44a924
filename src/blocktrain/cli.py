"""Command line entry points: ``blocktrain run`` and ``blocktrain compare``."""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Sequence

from .experiment import (
    FINAL_HEADER,
    ConfigError,
    ExperimentConfig,
    TrainingError,
    run_experiment,
    write_run_artifacts,
)
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


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
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
