"""Simulated N-worker cluster with barrier-synchronized block training.

A block is one fixed sequence, defined once in :meth:`Cluster.run_block`:
every worker trains on its own shard stream, the coordinator averages the
local models (whole vectors under the centralized transport, shard by shard
under the decentralized one), the filtered global update runs, the shadows
observe it, and the new global model is broadcast back before the next block
may start. Serial mode runs the per-worker steps in ascending index order on
the calling thread; threaded mode runs the same steps on long-lived worker
threads, and queues carry only those steps and their results. Every average
goes through one centered-mean kernel
(:func:`~blocktrain.numerics.centered_mean`) that sums in ascending worker
order, so all modes and transports produce bit-identical results.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .models import Batch, ModelSpec, backward
from .numerics import ParamVector, centered_mean, frozen, mean_reduce
from .optim import SgdState, sgd_step
from .sync import ShadowState, SyncState, bmuf_apply, shadow_update

__all__ = [
    "ClusterConfig",
    "ShardPlan",
    "WorkerState",
    "Cluster",
    "make_shard_plan",
    "decentralized_aggregate",
]

TRANSPORTS = ("centralized", "decentralized")


@dataclass(frozen=True)
class ClusterConfig:
    num_workers: int = 8
    block_size: int = 16
    transport: str = "decentralized"
    # momentum buffers normally persist across broadcasts; set True to zero
    # them whenever a new global model lands
    reset_momentum: bool = False

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got {self.transport!r}"
            )


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous half-open ranges of the parameter vector, one per worker."""

    bounds: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bounds) < 2 or self.bounds[0] != 0:
            raise ValueError("bounds must start at 0 and contain at least one range")
        if any(b > c for b, c in zip(self.bounds, self.bounds[1:])):
            raise ValueError("bounds must be non-decreasing")

    @property
    def param_len(self) -> int:
        return self.bounds[-1]

    @property
    def num_shards(self) -> int:
        return len(self.bounds) - 1

    def range_of(self, shard: int) -> tuple[int, int]:
        return self.bounds[shard], self.bounds[shard + 1]


def make_shard_plan(param_len: int, num_workers: int) -> ShardPlan:
    """Split ``[0, param_len)`` into ``num_workers`` near-equal ranges.

    The first ``param_len % num_workers`` ranges are one element longer;
    trailing ranges may be empty when there are more workers than elements.
    """
    if param_len < 0:
        raise ValueError("param_len must be non-negative")
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    base, rem = divmod(param_len, num_workers)
    bounds = [0]
    for j in range(num_workers):
        bounds.append(bounds[-1] + base + (1 if j < rem else 0))
    return ShardPlan(tuple(bounds))


def decentralized_aggregate(
    local_models: Sequence[ParamVector], plan: ShardPlan
) -> ParamVector:
    """Shard-wise mean over workers, reassembled into a full vector.

    Each shard is averaged with :func:`~blocktrain.numerics.centered_mean`,
    the kernel :func:`~blocktrain.numerics.mean_reduce` applies to whole
    vectors, so the result equals the centralized mean bit for bit.
    """
    if len(local_models) == 0:
        raise ValueError("need at least one local model")
    for v in local_models:
        if len(v) != plan.param_len:
            raise ValueError(f"model length {len(v)} does not match plan {plan.param_len}")
    out = np.empty(plan.param_len)
    for j in range(plan.num_shards):
        lo, hi = plan.range_of(j)
        out[lo:hi] = centered_mean([v.values[lo:hi] for v in local_models])
    return ParamVector(frozen(out))


@dataclass
class WorkerState:
    """One worker: local model, optimizer buffer, and its shard stream.

    The stream cycles through the worker's shard, reshuffled with the
    worker-owned generator at the start of every pass, so the visit order is
    a pure function of the generator seed regardless of scheduling.
    """

    index: int
    model: ParamVector
    opt: SgdState
    batches: tuple[Batch, ...]
    rng: np.random.Generator
    order: np.ndarray = field(init=False)
    cursor: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if len(self.batches) == 0:
            raise ValueError(f"worker {self.index} has an empty shard")
        self.order = self.rng.permutation(len(self.batches))

    def next_batch(self) -> Batch:
        if self.cursor >= len(self.order):
            self.order = self.rng.permutation(len(self.batches))
            self.cursor = 0
        batch = self.batches[self.order[self.cursor]]
        self.cursor += 1
        return batch

    def run_local_block(self, spec: ModelSpec, block_size: int) -> None:
        for _ in range(block_size):
            _, grad = backward(spec, self.model, self.next_batch())
            self.model, self.opt = sgd_step(self.model, grad, self.opt)


class Cluster:
    """Coordinator plus N workers; one ``run_block`` call per sync block.

    ``run_block`` is the single definition of a block. Every per-worker part
    of it is a step (a callable taking a :class:`WorkerState`) handed to
    ``_on_workers``. With ``threaded=False`` the steps run in ascending
    worker order on the calling thread. With ``threaded=True`` each worker is
    a daemon thread that takes steps from its inbox queue and posts results
    back. The transport only selects how the coordinator averages
    (``_aggregate``), so both modes and both transports produce
    bitwise-identical trajectories. A failure is raised from ``run_block``
    with the block named, and the worker too when a worker step failed; the
    cluster is then only fit to be closed.

    ``event_log``, when given, receives ``(phase, block_index, worker)``
    tuples from the workers; tests use it to check the barrier protocol.
    """

    def __init__(
        self,
        spec: ModelSpec,
        workers: Sequence[WorkerState],
        sync_state: SyncState,
        shadow_state: ShadowState | None,
        config: ClusterConfig,
        *,
        threaded: bool = True,
        event_log: list | None = None,
    ) -> None:
        if len(workers) != config.num_workers:
            raise ValueError(
                f"config says {config.num_workers} workers, got {len(workers)}"
            )
        self.spec = spec
        self.workers = list(workers)
        self.sync_state = sync_state
        self.shadow_state = shadow_state
        self.config = config
        self.threaded = threaded
        self.event_log = event_log
        self.plan = make_shard_plan(len(sync_state.global_model), config.num_workers)
        on_threads = self.workers if threaded else []
        self._results: queue.Queue = queue.Queue()
        self._inboxes = [queue.Queue() for _ in on_threads]
        self._threads = [
            threading.Thread(target=self._worker_loop, args=(w,), daemon=True)
            for w in on_threads
        ]
        for t in self._threads:
            t.start()

    # -- per-worker steps ----------------------------------------------

    def _train(self, w: WorkerState, block_index: int) -> ParamVector:
        if self.event_log is not None:
            self.event_log.append(("start", block_index, w.index))
        w.run_local_block(self.spec, self.config.block_size)
        return w.model

    def _adopt(self, w: WorkerState, model: ParamVector, block_index: int) -> None:
        w.model = model
        if self.config.reset_momentum:
            w.opt = SgdState.initial(
                len(model), w.opt.learning_rate, w.opt.momentum
            )
        if self.event_log is not None:
            self.event_log.append(("applied", block_index, w.index))

    @staticmethod
    def _attempt(step: Callable[[WorkerState], object], w: WorkerState) -> tuple:
        try:
            return w.index, step(w), None
        except BaseException as exc:  # handed to the coordinator, which raises it
            return w.index, None, exc

    def _worker_loop(self, w: WorkerState) -> None:
        inbox = self._inboxes[w.index]
        while (step := inbox.get()) is not None:
            self._results.put(self._attempt(step, w))

    # -- coordinator side ----------------------------------------------

    def _on_workers(
        self, block_index: int, step: Callable[[WorkerState], object]
    ) -> list:
        """``step(w)`` for every worker, results in ascending worker order.

        Serial mode stops at the first failure; threaded mode raises the
        first failure to arrive, after all replies are in. Either way the
        error keeps its type and gains the block and worker as a prefix.
        """
        if self.threaded:
            for inbox in self._inboxes:
                inbox.put(step)
            replies = [self._results.get() for _ in self.workers]
        else:
            replies = (self._attempt(step, w) for w in self.workers)
        results = [None] * len(self.workers)
        for index, result, exc in replies:
            if exc is not None:
                exc.args = (f"block {block_index}, worker {index}: {exc}",)
                raise exc
            results[index] = result
        return results

    def _aggregate(self, results: list[ParamVector]) -> ParamVector:
        if self.config.transport == "centralized":
            return mean_reduce(results)
        return decentralized_aggregate(results, self.plan)

    def run_block(self) -> SyncState:
        """Train one block on every worker, synchronize, broadcast.

        Returns the new sync state; afterwards every worker's local model is
        the freshly broadcast global model, while momentum buffers persist.
        """
        block_index = self.sync_state.block_index + 1
        theta_bar = self._aggregate(
            self._on_workers(block_index, lambda w: self._train(w, block_index))
        )
        try:
            self.sync_state = bmuf_apply(self.sync_state, theta_bar)
            if self.shadow_state is not None:
                self.shadow_state = shadow_update(
                    self.shadow_state, self.sync_state.global_model
                )
        except Exception as exc:  # same prefix as a worker failure, minus the worker
            exc.args = (f"block {block_index}: {exc}",)
            raise
        new_model = self.sync_state.global_model
        self._on_workers(
            block_index, lambda w: self._adopt(w, new_model, block_index)
        )
        return self.sync_state

    def close(self) -> None:
        for inbox in self._inboxes:
            inbox.put(None)
        for t in self._threads:
            t.join()
        self._threads = []

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
