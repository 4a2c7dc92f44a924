"""One benchmark run in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR TRACE

Runs a fixed pure-Python calibration loop, then ``run_experiment`` plus
``write_run_artifacts`` for the workload, and prints one JSON line with the
run's timings, its output digest and any output errors. ``TRACE=1`` wraps
every layer's entry points and adds per-layer metrics and call counts;
``TRACE=0`` wraps only ``Cluster.run_block``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import blocktrain.experiment as experiment  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import make_config  # noqa: E402

CALIBRATION_ITERATIONS = 300_000
# far below the ~0.1 FER every workload reaches, far above chance (0.875)
MAX_FINAL_FER = 0.5


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; tells a noisy machine apart."""
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def check_outputs(out_dir: Path, config) -> tuple[str, list[str]]:
    """sha256 of curves.csv + final.csv, and what is wrong with them."""
    curves = (out_dir / "curves.csv").read_bytes()
    final = (out_dir / "final.csv").read_bytes()
    digest = hashlib.sha256(curves + final).hexdigest()
    errors = []
    curve_rows = curves.decode().splitlines()
    if curve_rows[0] != experiment.CURVES_HEADER or len(curve_rows) != 1 + config.epochs * 4 * 3:
        errors.append(f"curves.csv: bad header or {len(curve_rows) - 1} rows")
    for row in curve_rows[1:]:
        if not 0.0 <= float(row.split(",")[2]) <= 1.0:
            errors.append(f"curves.csv: FER out of range in {row!r}")
    final_rows = final.decode().splitlines()
    if final_rows[0] != experiment.FINAL_HEADER or [r.split(",")[0] for r in final_rows[1:]] != [
        "bmuf",
        "ma",
        "ema",
    ]:
        errors.append("final.csv: bad header or strategies")
    for row in final_rows[1:]:
        if not 0.0 <= float(row.split(",")[1]) < MAX_FINAL_FER:
            errors.append(f"final.csv: final FER not below {MAX_FINAL_FER} in {row!r}")
    return digest, errors


def main(argv: list[str]) -> int:
    workload, seed, out_dir, traced = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    calib_s = calibrate()
    config, threaded = make_config(workload, seed)
    tracer = Tracer()
    tracer.install(full=traced)

    start = perf_counter()
    result = experiment.run_experiment(config, threaded=threaded)
    experiment.write_run_artifacts(result, out_dir)
    end = perf_counter()

    blocks = tracer.blocks()
    digest, errors = check_outputs(out_dir, config)
    # every utterance has frames_per_utterance frames, so every mini-batch
    # holds the same number of super-frames
    frames = (
        config.epochs
        * result.blocks_per_epoch
        * config.num_workers
        * config.block_size
        * (config.frames_per_utterance // config.stack)
    )
    record = {
        "run_s": end - start,
        "setup_s": blocks[0][0] - start,
        "train_s": blocks[-1][1] - blocks[0][0],
        "eval_s": end - blocks[-1][1],
        "train_frames": frames,
        "block_s": [b - a for a, b in blocks],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calib_s": calib_s,
        "digest": digest,
        "errors": errors,
    }
    if traced:
        record["layers"] = tracer.layer_metrics()
        record["calls"] = tracer.calls()
        tracer.write(out_dir / "spans.jsonl")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
