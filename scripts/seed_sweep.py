#!/usr/bin/env python3
"""Multi-seed study of the final-model strategies on the default experiment.

For each seed and model family this runs ``configs/default_<model>.cfg``
(plus any ``--set`` overrides) through ``experiment.shadow_study``, the
runner the acceptance suite's shadow-model test uses, then reports per
strategy the final test FER and the test-FER curve spread (standard
deviation of the per-checkpoint test FER series). The two summary counts at
the bottom are the ones the acceptance suite checks:

* ema_beats_bmuf: seeds where the exponential shadow's final test FER is at
  most the raw global model's
* ema_steadier_than_ma: seeds where the exponential shadow's curve
  spreads less than the running mean's

A seed whose training fails (a worker crashes or diverges) prints its
``error:`` line in place of its results, counts toward neither summary count,
and the sweep goes on with the next seed; ``failed_seeds`` reports how many
failed.

Usage: python scripts/seed_sweep.py [--seeds N] [--models mlp,lstm]
       [--set key=value ...]

A ``--set`` item means what the same line means in a config file; a
missing ``=``, an unknown or repeated key, an unparsable value or an
invalid config exits with status 2 naming the key. ``--set seed=N`` exits
with status 2 naming ``'seed'``, since the sweep runs seeds 0 to
``--seeds`` minus 1 whatever the config says. A model without a
``configs/default_<model>.cfg`` exits with status 2 naming the model;
``--seeds`` below 1 exits with status 2 naming ``--seeds``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blocktrain.experiment import (
    ConfigError,
    ExperimentConfig,
    TrainingError,
    parse_lines,
    shadow_study,
)
from blocktrain.metrics import curve_spread


def parse_overrides(items):
    """``key=value`` strings parsed as config-file lines; raises ConfigError
    naming the key where a config file would, or if it is ``seed`` (the
    seeds come from ``--seeds``)."""
    overrides = parse_lines(items)
    if "seed" in overrides:
        raise ConfigError("seed", "the sweep's seeds come from --seeds")
    return overrides


def load_configs(models, overrides):
    """``configs/default_<model>.cfg`` plus ``overrides`` for each model;
    raises ConfigError naming a model that has no such file."""
    configs = {}
    for model in models:
        path = ROOT / "configs" / f"default_{model}.cfg"
        if not path.is_file():
            raise ConfigError("model", f"unknown model {model!r}, no {path.name}")
        configs[model] = replace(ExperimentConfig.from_file(path), **overrides)
    return configs


def run_study(configs, seeds):
    for model, config in configs.items():
        study = shadow_study(config, seeds)
        print(f"== {model} ==")
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
        print()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--models", default="mlp,lstm")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="key=value",
        help="override a config field (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    try:
        configs = load_configs(args.models.split(","), parse_overrides(args.set))
        run_study(configs, list(range(args.seeds)))
    except ConfigError as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    main()
