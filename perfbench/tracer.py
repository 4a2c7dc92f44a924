"""Spans and counters recorded around the public functions of each layer.

The package imports by name (``from .models import backward`` in
``cluster.py``), so each wrapper is installed at the name its caller looks
up: ``blocktrain.cluster.backward``, not ``blocktrain.models.backward``.
Spans stay in memory as ``[name, start, end, parent, thread]`` and are
written out once the run has ended. Span and layer names follow the module
that defines the wrapped function.
"""

from __future__ import annotations

import json
import queue
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

MB = 1 << 20

# (module of the caller, attribute, span name)
_CALL_SITES = (
    ("experiment", "run_experiment", "experiment.run_experiment"),
    ("experiment", "write_run_artifacts", "experiment.write_run_artifacts"),
    ("experiment", "generate_corpus", "data.generate_corpus"),
    ("experiment", "split_by_speaker", "data.split_by_speaker"),
    ("experiment", "shard_dataset", "data.shard_dataset"),
    ("experiment", "stack_frames", "data.stack_frames"),
    ("experiment", "init_params", "models.init_params"),
    ("experiment", "evaluate_checkpoints", "metrics.evaluate_checkpoints"),
    ("metrics", "predict_frames", "models.predict_frames"),
    ("cluster", "backward", "models.backward"),
    ("cluster", "sgd_step", "optim.sgd_step"),
    ("cluster", "mean_reduce", "numerics.mean_reduce"),
    ("cluster", "decentralized_aggregate", "cluster.decentralized_aggregate"),
    ("cluster", "bmuf_apply", "sync.bmuf_apply"),
    ("cluster", "shadow_update", "sync.shadow_update"),
    ("cluster.Cluster", "run_block", "cluster.run_block"),
    ("cluster.WorkerState", "run_local_block", "cluster.run_local_block"),
)


def quantile(values, q: float) -> float:
    """Linearly interpolated ``q``-quantile; 0.0 for no values."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


_UNITS = (
    ("_us", "us"),
    ("mb", "MB"),
    ("_s", "s"),
    (".s", "s"),
    ("share", "ratio"),
    ("overhead", "ratio"),
)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in _UNITS:
        if metric.endswith(suffix):
            return unit
    return "count"


def is_count(metric: str) -> bool:
    """Metrics that count work and must repeat exactly from run to run."""
    return unit_of(metric) in ("count", "MB")


def _payload_bytes(item) -> int:
    total = 0
    for part in item if isinstance(item, tuple) else (item,):
        arr = getattr(part, "values", part)  # ParamVector or bare array
        if isinstance(arr, np.ndarray):
            total += arr.nbytes
    return total


class Tracer:
    """Records spans of wrapped calls and counts of wrapped constructors."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counts: list[dict[str, list[int]]] = []

    def _count(self, name: str, nbytes: int) -> None:
        # per-thread tallies, so that counting takes no lock per call
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(lambda: [0, 0])
            with self._lock:
                self._thread_counts.append(counts)
        c = counts[name]
        c[0] += 1
        c[1] += nbytes

    def counts(self) -> dict[str, tuple[int, int]]:
        """Calls and payload bytes per counted entry point, over all threads."""
        total: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for counts in self._thread_counts:
            for name, (n, nbytes) in counts.items():
                total[name][0] += n
                total[name][1] += nbytes
        return {name: (n, nbytes) for name, (n, nbytes) in total.items()}

    def _wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        local = self._local
        spans = self.spans

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident()]
            spans.append(span)
            stack.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        setattr(owner, attr, traced)

    def install(self, full: bool) -> None:
        """Wrap every layer entry point, or with ``full=False`` only
        ``Cluster.run_block`` (the one hook of an untraced run)."""
        import blocktrain.cluster
        import blocktrain.experiment
        import blocktrain.metrics
        from blocktrain.numerics import ParamVector

        modules = {
            "experiment": blocktrain.experiment,
            "metrics": blocktrain.metrics,
            "cluster": blocktrain.cluster,
            "cluster.Cluster": blocktrain.cluster.Cluster,
            "cluster.WorkerState": blocktrain.cluster.WorkerState,
        }
        for owner, attr, name in _CALL_SITES:
            if full or name == "cluster.run_block":
                self._wrap(modules[owner], attr, name)
        if not full:
            return

        post_init = ParamVector.__post_init__

        def counted_post_init(pv) -> None:
            post_init(pv)
            self._count("numerics.ParamVector", pv.values.nbytes)

        ParamVector.__post_init__ = counted_post_init

        put = queue.Queue.put

        def counted_put(q, item, *args, **kwargs):
            self._count("cluster.queue_put", _payload_bytes(item))
            return put(q, item, *args, **kwargs)

        queue.Queue.put = counted_put

    def blocks(self) -> list[tuple[float, float]]:
        return [(s[1], s[2]) for s in self.spans if s[0] == "cluster.run_block"]

    def calls(self) -> dict[str, int]:
        """Calls per entry point, spans and counted constructors alike."""
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s[0]] += 1
        for name, (n, _) in self.counts().items():
            out[name] = n
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        dur: dict[str, list[float]] = defaultdict(list)
        covered_by_children: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            dur[name].append(end - start)
            if parent is not None:  # parents are always on the same thread
                covered_by_children[id(parent)] += end - start
        run_block_self = sum(
            (s[2] - s[1]) - covered_by_children[id(s)]
            for s in self.spans
            if s[0] == "cluster.run_block"
        )
        blocks = self.blocks()
        train_start, train_end = blocks[0][0], blocks[-1][1]
        busy = _union_length(
            (s[1], s[2]) for s in self.spans if s[0] == "cluster.run_local_block"
        )

        def calls(name):
            return len(dur[name])

        def secs(*names):
            return sum(sum(dur[n]) for n in names)

        def us(name, q):
            return quantile(dur[name], q) * 1e6

        counts = self.counts()
        pv_n, pv_bytes = counts.get("numerics.ParamVector", (0, 0))
        q_n, q_bytes = counts.get("cluster.queue_put", (0, 0))
        return {
            "data.generate_corpus.s": secs("data.generate_corpus"),
            "data.stack_frames.calls": calls("data.stack_frames"),
            "data.stack_frames.s": secs("data.stack_frames"),
            "data.split_shard.s": secs("data.split_by_speaker", "data.shard_dataset"),
            "models.backward.calls": calls("models.backward"),
            "models.backward.s": secs("models.backward"),
            "models.backward.p50_us": us("models.backward", 0.5),
            "models.backward.p99_us": us("models.backward", 0.99),
            "models.predict_frames.calls": calls("models.predict_frames"),
            "models.predict_frames.s": secs("models.predict_frames"),
            "models.init_params.s": secs("models.init_params"),
            "optim.sgd_step.calls": calls("optim.sgd_step"),
            "optim.sgd_step.s": secs("optim.sgd_step"),
            "optim.sgd_step.p50_us": us("optim.sgd_step", 0.5),
            "numerics.ParamVector.n": pv_n,
            "numerics.ParamVector.mb": pv_bytes / MB,
            "numerics.mean_reduce.calls": calls("numerics.mean_reduce"),
            "numerics.mean_reduce.s": secs("numerics.mean_reduce"),
            "sync.bmuf_apply.calls": calls("sync.bmuf_apply"),
            "sync.bmuf_apply.s": secs("sync.bmuf_apply"),
            "sync.shadow_update.calls": calls("sync.shadow_update"),
            "sync.shadow_update.s": secs("sync.shadow_update"),
            "cluster.run_block.calls": calls("cluster.run_block"),
            "cluster.run_block.s": secs("cluster.run_block"),
            "cluster.run_block.self_s": run_block_self,
            "cluster.run_block.p50_us": us("cluster.run_block", 0.5),
            "cluster.run_local_block.s": secs("cluster.run_local_block"),
            "cluster.decentralized_aggregate.calls": calls("cluster.decentralized_aggregate"),
            "cluster.decentralized_aggregate.s": secs("cluster.decentralized_aggregate"),
            "cluster.sync_share": 1.0 - busy / (train_end - train_start),
            "cluster.queue_msgs": q_n,
            "cluster.queue_mb": q_bytes / MB,
            "metrics.evaluate_checkpoints.calls": calls("metrics.evaluate_checkpoints"),
            "metrics.evaluate_checkpoints.s": secs("metrics.evaluate_checkpoints"),
            "experiment.run_experiment.s": secs("experiment.run_experiment"),
            "experiment.write_run_artifacts.s": secs("experiment.write_run_artifacts"),
        }

    def write(self, path) -> None:
        """One JSON line per span: name, start and end (seconds from the first
        span's start), parent span's line index or -1, thread index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        threads: dict[int, int] = {}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, thread in self.spans:
                fh.write(
                    json.dumps(
                        [
                            name,
                            round(start - t0, 9),
                            round(end - t0, 9),
                            -1 if parent is None else index[id(parent)],
                            threads.setdefault(thread, len(threads)),
                        ]
                    )
                    + "\n"
                )


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
