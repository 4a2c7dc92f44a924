#!/usr/bin/env python3
"""Multi-seed study of the final-model strategies on the default experiment.

For each seed and model family this runs ``configs/default_<model>.cfg``
(plus any ``--set`` overrides), then reports per strategy the final test FER
and the test-FER curve spread (standard deviation of the per-checkpoint test
FER series). The two summary counts at the bottom are the ones the
acceptance suite checks:

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

``--set`` values are parsed as config files parse them; an unknown key, an
unparsable value or an invalid config exits with status 2 naming the key, and
a model without a ``configs/default_<model>.cfg`` exits with status 2 naming
the model.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blocktrain.experiment import (
    ConfigError,
    ExperimentConfig,
    TrainingError,
    parse_value,
    run_experiment,
)
from blocktrain.metrics import curve_spread, shadow_verdicts


def parse_overrides(items):
    """``key=value`` strings parsed as config files parse them; raises
    ConfigError naming the key if it is unknown or its value unparsable."""
    overrides = {}
    for item in items:
        key, _, raw = item.partition("=")
        key = key.strip()
        overrides[key] = parse_value(key, raw.strip())
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
        ema_beats_bmuf = 0
        ema_steadier = 0
        failed = 0
        print(f"== {model} ==")
        print("seed  bmuf_fer  ma_fer  ema_fer  ma_spread  ema_spread  secs")
        for seed in seeds:
            start = time.perf_counter()
            try:
                result = run_experiment(config.with_seed(seed), threaded=False)
            except TrainingError as exc:
                failed += 1
                print(f"{seed:<4d}  error: {exc}")
                continue
            elapsed = time.perf_counter() - start
            final = result.final_test_fer
            spread_ma = curve_spread(result.test_records, "ma")
            spread_ema = curve_spread(result.test_records, "ema")
            beats, steadier = shadow_verdicts(final, result.test_records)
            ema_beats_bmuf += beats
            ema_steadier += steadier
            print(
                f"{seed:<4d}  {final['bmuf']:.4f}    {final['ma']:.4f}  "
                f"{final['ema']:.4f}   {spread_ma:.5f}    {spread_ema:.5f}     {elapsed:.1f}"
            )
        n = len(seeds)
        print(f"ema_beats_bmuf: {ema_beats_bmuf}/{n}   ema_steadier_than_ma: {ema_steadier}/{n}")
        print(f"failed_seeds: {failed}/{n}")
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
    try:
        configs = load_configs(args.models.split(","), parse_overrides(args.set))
    except ConfigError as exc:
        parser.exit(2, f"error: {exc}\n")
    run_study(configs, list(range(args.seeds)))


if __name__ == "__main__":
    main()
