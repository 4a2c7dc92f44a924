"""blocktrain benchmark: one workload, timed runs or a traced run.

    python3 perfbench/run.py --workload lstm|mlp_wide|mlp_threaded
        [--seed 2024] [--seconds 50] [--trace 0|1]

Each run of the program is one fresh process (``child.py``), so no state
leaks from one sample into the next. ``--trace 0`` makes at least three
untraced runs, and more while the next one is expected to end within
``--seconds``, and reports the end-to-end metrics as medians over runs;
block times are pooled over all blocks of all runs. ``--trace 1`` makes an
untraced, two traced and another untraced run (the order cancels a steady
drift in machine speed) and reports the per-layer metrics, the median of
the two traced runs, and the tracing overhead.

Every run's ``curves.csv`` + ``final.csv`` is hashed. On the default seed the
digest must equal the one recorded from the seed commit
(``reference.json``); on any seed all runs of the invocation must agree. A
run that disagrees, or whose outputs fail the sanity checks, counts as
failed. Traced runs must repeat every count exactly, and every entry point a
workload is expected to reach must record calls.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit); the lines before it
give the workload and why it was chosen, the machine record, each run, and
each metric with its sample count.
Run outputs go to ``.bench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from hashlib import sha256
from pathlib import Path
from time import perf_counter

from tracer import is_count, quantile, unit_of
from workloads import COMMON_ENTRY_POINTS, DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src" / "blocktrain"
MIN_TIMED_RUNS = 3
# the whole invocation must end within 180 s; leave room to report
BUDGET_S = 165.0

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "train_frames_per_s": "frames/s",
    "block_ms_p10": "ms",
    "block_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    pass


def run_child(workload: str, seed: int, out_dir: Path, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(out_dir), str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"run timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"run exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_record() -> dict:
    import numpy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(numpy),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _blas_threads(numpy) -> int | str:
    """Threads of numpy's bundled OpenBLAS, else the thread environment variable."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        except OSError:
            continue
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            return f"{var}={os.environ[var]}"
    return "library default"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = sha256()
    for path in sorted(SOURCES.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def end_to_end(runs: list[dict]) -> dict[str, float]:
    def med(key: str) -> float:
        return statistics.median(r[key] for r in runs)

    blocks_ms = [b * 1e3 for r in runs for b in r["block_s"]]
    return {
        "run_s": med("run_s"),
        "setup_s": med("setup_s"),
        "train_s": med("train_s"),
        "eval_s": med("eval_s"),
        "train_frames_per_s": statistics.median(r["train_frames"] / r["train_s"] for r in runs),
        "block_ms_p10": quantile(blocks_ms, 0.1),
        "block_ms_p90": quantile(blocks_ms, 0.9),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def mark_failures(runs: list[dict], seed: int, reference: dict, workload: str) -> None:
    """Set ``run["failed"]`` from output errors and digest agreement."""
    if seed == DEFAULT_SEED:
        expected = reference["digests"][workload]
    else:
        expected = Counter(r["digest"] for r in runs).most_common(1)[0][0]
    for r in runs:
        problems = list(r["errors"])
        if r["digest"] != expected:
            problems.append(f"digest {r['digest'][:16]} != expected {expected[:16]}")
        r["failed"] = problems


def traced_checks(workload: str, traced: list[dict]) -> None:
    """Coverage guard (fails loudly) and exact repeat of every count."""
    expected = COMMON_ENTRY_POINTS + WORKLOADS[workload].expects
    for r in traced:
        silent = [name for name in expected if r["calls"].get(name, 0) == 0]
        if silent:
            raise SystemExit(
                f"coverage guard: {', '.join(silent)} recorded no calls on {workload}; "
                "an entry point was renamed or no longer reached"
            )
    first = traced[0]
    for r in traced[1:]:
        for name, value in first["layers"].items():
            if is_count(name) and r["layers"][name] != value:
                r["failed"].append(f"count {name} = {r['layers'][name]}, first traced run {value}")


def schedule(trace: int, seconds: float, began: float):
    """Whether each successive run is traced: untraced, traced, traced,
    untraced; or at least three untraced runs and more while the next one is
    expected to end within ``seconds``."""
    if trace:
        yield from (False, True, True, False)
        return
    n = 0
    longest = 0.0
    last = perf_counter()
    while True:
        now = perf_counter()
        if n:
            longest = max(longest, now - last)
        if n >= MIN_TIMED_RUNS and now - began + longest > seconds:
            return
        n += 1
        last = now
        yield False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SOURCES / "__init__.py").is_file():
        print(f"blocktrain sources not found under {SOURCES.parent}", file=sys.stderr)
        return 2

    began = perf_counter()
    reference = json.loads((HERE / "reference.json").read_text())
    out_root = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_root, ignore_errors=True)
    record = {"workload": args.workload, "why": WORKLOADS[args.workload].why, "seed": args.seed}
    print(json.dumps({**record, "machine": machine_record()}), flush=True)

    runs: list[dict] = []
    attempted = 0
    for traced in schedule(args.trace, args.seconds, began):
        remaining = BUDGET_S - (perf_counter() - began)
        if remaining <= 0:
            break
        attempted += 1
        try:
            r = run_child(args.workload, args.seed, out_root / f"run{attempted}", traced, remaining)
        except RunError as exc:
            print(f"run {attempted} failed: {exc}", file=sys.stderr)
            continue
        r["index"], r["traced"] = attempted, traced
        runs.append(r)

    if not runs:
        print("no run completed", file=sys.stderr)
        return 1
    mark_failures(runs, args.seed, reference, args.workload)
    untraced = [r for r in runs if not r["traced"]]
    if args.trace:
        traced_runs = [r for r in runs if r["traced"]]
        if len(traced_runs) < 2 or len(untraced) < 2:
            print("traced set incomplete", file=sys.stderr)
            return 1
        traced_checks(args.workload, traced_runs)
        # counts repeat exactly (checked above); times are medians
        metrics = {
            name: value if is_count(name) else statistics.median(r["layers"][name] for r in traced_runs)
            for name, value in traced_runs[0]["layers"].items()
        }
        metrics["trace.overhead"] = statistics.median(
            r["run_s"] for r in traced_runs
        ) / statistics.median(r["run_s"] for r in untraced)
        units = {name: unit_of(name) for name in metrics}
        notes = {
            name: "identical in both traced runs" if is_count(name) else "median of 2 traced runs"
            for name in metrics
        }
        notes["trace.overhead"] = "median traced over median untraced run_s, 2 runs each"
    else:
        metrics = end_to_end(untraced)
        units = END_TO_END_UNITS
        blocks = sum(len(r["block_s"]) for r in untraced)
        notes = {
            name: f"pooled over {blocks} blocks of {len(untraced)} runs"
            if name.startswith("block_ms")
            else f"median of {len(untraced)} runs"
            for name in metrics
        }

    for r in runs:
        status = "FAILED " + "; ".join(r["failed"]) if r["failed"] else "ok"
        print(
            f"run {r['index']}: {'traced' if r['traced'] else 'timed'} run_s={r['run_s']:.4f} "
            f"calib_s={r['calib_s']:.4f} digest={r['digest'][:16]} {status}"
        )
    calib = [r["calib_s"] for r in runs]
    print(f"calibration loop: median {statistics.median(calib):.4f} s, "
          f"min {min(calib):.4f} s, max {max(calib):.4f} s over {len(calib)} runs")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} ({notes[name]})")
    failed = sum(1 for r in runs if r["failed"]) + (attempted - len(runs))
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} runs)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
