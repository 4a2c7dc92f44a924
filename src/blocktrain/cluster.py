"""Simulated N-worker cluster with barrier-synchronized block training.

A block is one fixed sequence, defined once in :meth:`Cluster.run_block`:
every worker trains on its own shard stream, the coordinator averages the
local models (whole vectors under the centralized transport, shard by shard
under the decentralized one), the filtered global update runs, the shadows
observe it, and every worker starts the next block from the new global model:
its first local step reads the coordinator's array, so the broadcast writes
no per-worker copy. Every average goes through one centered-mean kernel
(:func:`~blocktrain.numerics.centered_mean`) that sums in ascending worker
order, so all modes and transports produce bit-identical results. The
cluster owns every array a block writes, so a warmed-up block allocates no
parameter-sized array. Workers train in slabs, contiguous ranges of worker
indices trained in order by one thread: slab 0 (the only one when serial)
on the calling thread, the rest on helper threads, at most one per core.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .models import Batch, ModelSpec, backward
from .numerics import NON_FINITE, ParamVector, as_rows, centered_mean, frozen, mean_reduce
from .optim import sgd_step
from .sync import ShadowState, SyncState, bmuf_apply, shadow_update

__all__ = [
    "ClusterConfig",
    "ShardPlan",
    "WorkerState",
    "Cluster",
    "TrainingError",
    "make_shard_plan",
    "decentralized_aggregate",
]

TRANSPORTS = ("centralized", "decentralized")


class TrainingError(RuntimeError):
    """A block of training failed: a worker crashed or diverged, or the
    coordinator's filter or shadow update did. The message names the block,
    and the worker when one failed (``block 9, worker 4: ...``); the
    ``__cause__`` is the original error, left untouched."""


@dataclass(frozen=True)
class ClusterConfig:
    """Local training and synchronization settings shared by every worker."""

    learning_rate: float
    momentum: float = 0.0
    block_size: int = 16
    transport: str = "decentralized"
    # momentum buffers normally persist across broadcasts; set True to zero
    # them whenever a new global model lands
    reset_momentum: bool = False

    def __post_init__(self) -> None:
        if not (self.learning_rate > 0.0 and np.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
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
    local_models: Sequence[ParamVector] | np.ndarray,
    plan: ShardPlan,
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> ParamVector:
    """Shard-wise mean over workers, reassembled into a full vector.

    Each shard is averaged with :func:`~blocktrain.numerics.centered_mean`,
    the kernel :func:`~blocktrain.numerics.mean_reduce` applies to whole
    vectors, so the result equals the centralized mean bit for bit.
    ``local_models``, ``out`` and ``work`` are as for ``mean_reduce``.
    """
    rows = as_rows(local_models)
    if rows[0].shape[0] != plan.param_len:
        raise ValueError(
            f"model length {rows[0].shape[0]} does not match plan {plan.param_len}"
        )
    out = np.empty(plan.param_len) if out is None else out
    tmp = np.empty(plan.param_len) if work is None else work[0]
    for j in range(plan.num_shards):
        lo, hi = plan.range_of(j)
        centered_mean([row[lo:hi] for row in rows], out[lo:hi], tmp[lo:hi])
    return ParamVector(frozen(out.view()))


def _aligned_rows(rows: int, length: int) -> np.ndarray:
    """An uninitialised ``(rows, length)`` float64 array whose rows are each
    C-contiguous and start on a 64-byte (cache-line) boundary. A plain
    ``np.empty`` of this size commonly lands 16 bytes past one, and then
    every 64-byte vector access of numpy's elementwise loops spans two
    cache lines. The row stride is rounded up to whole cache lines, so
    every row stays aligned whatever ``length`` is."""
    stride = -(-length // 8) * 8
    raw = np.empty(rows * stride + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip : skip + rows * stride].reshape(rows, stride)[:, :length]


def _cores() -> int:
    """The cores this process may run on: threaded mode's most slabs, the
    calling thread's included."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class WorkerState:
    """One worker's shard stream; its parameters and velocity are rows
    ``index`` of the cluster's ``(N, P)`` arrays.

    The stream cycles through the worker's shard, reshuffled with the
    worker-owned generator at the start of every pass, so the visit order is
    a pure function of the generator seed regardless of scheduling.
    """

    index: int
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

    def run_local_block(
        self,
        spec: ModelSpec,
        start: np.ndarray,
        params: np.ndarray,
        velocity: np.ndarray,
        grad: np.ndarray,
        config: ClusterConfig,
    ) -> None:
        """``config.block_size`` momentum steps on the worker's rows, with
        ``grad`` as the gradient buffer of every step. The first step reads
        the block's start model ``start``, which it never writes, and
        overwrites ``params``; the later steps run in place on ``params``."""
        model = start
        for _ in range(config.block_size):
            backward(spec, model, self.next_batch(), out=grad)
            sgd_step(
                params, grad, velocity, config.learning_rate, config.momentum,
                start=model,
            )
            model = params


class Cluster:
    """Coordinator plus N workers; one ``run_block`` call per sync block.

    The cluster owns every array a block writes, and each row of each one
    starts on a 64-byte boundary; placement moves no bit. Worker state is
    two ``(N, P)`` arrays, ``params`` (a row holds nothing until its
    worker's first local step writes it) and ``velocity`` (zeros);
    ``workers[i]`` must have index ``i`` and trains on row ``i`` of each.
    Each block starts every worker from ``sync_state.global_model``: the
    first local step reads it, never writes it, and overwrites row ``i`` of
    ``params``, so the broadcast is that read and not a copy per row. The
    workers are split into slabs, contiguous index ranges (``slabs``, a
    :class:`ShardPlan` over worker indices), ``K`` of them: one with
    ``threaded=False``, else ``min(N, cores)``. The calling thread trains
    slab 0 and ``K - 1`` daemon helper threads take slabs 1 to ``K - 1``
    from one task queue, so serial mode is ``K = 1``, no helper. A slab
    trains its workers in index order with one gradient row of ``grads``,
    stops at its first failure and reports only that worker and its error.
    The coordinator then averages the rows of ``params`` (``_synchronize``;
    the transport is the one choice there) into its own buffer, filters and
    updates the shadows while the workers wait at the barrier. Workers only
    read the global model while they train and the coordinator writes it
    only after the barrier, so every slab count and both transports produce
    bitwise-identical trajectories. The filter and shadows write into the
    cluster's own pairs of arrays, so the returned ``sync_state`` and
    ``shadow_state`` are views that the next block overwrites: copy what you
    keep.

    The worker rows are checked for finiteness once per block, through the
    average: NaN and inf stay non-finite under the local steps and the mean,
    so a worker that diverged anywhere in the block fails it. Only then are
    the rows scanned, to name the lowest diverged worker. The filter's and
    the shadows' outputs (global model, step, MA, EMA) are checked as they
    are built, so a block validates five parameter vectors in all.
    ``run_block`` raises a failure as a :class:`TrainingError` whose message
    names the block, and the worker too when local training failed or
    diverged (the lowest index of either kind, since a slab's first failure
    is its lowest and every row below the lowest failing worker trained),
    and whose ``__cause__`` is the original error; an interrupt leaves as
    itself, once every helper has replied. numpy's overflow warnings are
    silenced on every thread that trains or syncs, since the check reports
    the divergence. The cluster is then only fit to be closed.
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
    ) -> None:
        for position, w in enumerate(workers):
            if w.index != position:
                raise ValueError(f"worker at position {position} has index {w.index}")
        self.spec = spec
        self.workers = list(workers)
        self.sync_state = sync_state
        self.shadow_state = shadow_state
        self.config = config
        n = len(self.workers)
        length = len(sync_state.global_model)
        self.plan = make_shard_plan(length, n)
        self.slabs = make_shard_plan(n, min(n, _cores()) if threaded else 1)
        # each row of params is first written by its worker's first step
        self.params = _aligned_rows(n, length)
        self.velocity = _aligned_rows(n, length)
        self.velocity.fill(0.0)
        self.grads = _aligned_rows(self.slabs.num_shards, length)
        # the coordinator's arrays: the average, the filter's (global, delta),
        # the shadows' (MA, EMA) and scratch
        self._mean = _aligned_rows(1, length)[0]
        self._sync_out = _aligned_rows(2, length)
        self._shadow_out = _aligned_rows(2, length)
        self._work = _aligned_rows(2, length)
        self._tasks: queue.Queue = queue.Queue()
        self._results: queue.Queue = queue.Queue()
        self._threads = [
            threading.Thread(target=self._slab_loop, name="slab-helper", daemon=True)
            for _ in range(1, self.slabs.num_shards)
        ]
        for t in self._threads:
            t.start()

    # -- worker side ---------------------------------------------------

    def _train_slab(self, s: int) -> tuple[int | None, BaseException | None]:
        """One local block on slab ``s``'s workers in index order:
        ``(None, None)``, or the first failing worker and its error."""
        lo, hi = self.slabs.range_of(s)
        grad = self.grads[s]
        start = self.sync_state.global_model.values
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(lo, hi):
                try:
                    self.workers[i].run_local_block(
                        self.spec, start, self.params[i], self.velocity[i], grad,
                        self.config,
                    )
                except BaseException as exc:  # handed to the coordinator, which raises it
                    return i, exc
        return None, None

    def _slab_loop(self) -> None:
        while (s := self._tasks.get()) is not None:
            self._results.put(self._train_slab(s))

    # -- coordinator side ----------------------------------------------

    def _train_workers(self) -> tuple[int | None, BaseException | None]:
        """One local block on every slab, slab 0 on this thread and the rest
        on the helpers: ``(None, None)``, or the lowest failing worker and
        its error."""
        helper_slabs = range(1, self.slabs.num_shards)
        for s in helper_slabs:
            self._tasks.put(s)
        replies = [self._train_slab(0)]
        replies += [self._results.get() for _ in helper_slabs]
        failures = [reply for reply in replies if reply[1] is not None]
        return min(failures, key=lambda reply: reply[0], default=(None, None))

    def _synchronize(self) -> None:
        """Average the rows of ``params``, filter, update the shadows, all
        into the cluster's own arrays."""
        if self.config.transport == "centralized":
            theta_bar = mean_reduce(self.params, out=self._mean, work=self._work)
        else:
            theta_bar = decentralized_aggregate(
                self.params, self.plan, out=self._mean, work=self._work
            )
        self.sync_state = bmuf_apply(
            self.sync_state, theta_bar, out=self._sync_out, work=self._work
        )
        if self.shadow_state is not None:
            self.shadow_state = shadow_update(
                self.shadow_state,
                self.sync_state.global_model,
                out=self._shadow_out,
                work=self._work,
            )

    def _blame(
        self, exc: Exception, block_index: int, worker: int | None
    ) -> tuple[str, Exception]:
        """The message and cause of the :class:`TrainingError` for ``exc``:
        its block and, when local training failed, the worker. The lowest
        worker below ``worker`` (below N when no worker failed) whose
        parameters are not all finite takes the blame instead, with the
        divergence error."""
        finite = np.isfinite(self.params[:worker]).all(axis=1)
        if not finite.all():
            worker, exc = int(finite.argmin()), ValueError(NON_FINITE)
        where = f"block {block_index}" + ("" if worker is None else f", worker {worker}")
        return f"{where}: {exc}", exc

    def run_block(self) -> SyncState:
        """Train one block on every worker and synchronize.

        Returns the new sync state; afterwards row ``i`` of ``params`` holds
        worker ``i``'s local model from the block just trained, the next
        block starts every worker from ``sync_state.global_model``, and
        ``velocity`` persists unless ``reset_momentum`` is set.
        """
        block_index = self.sync_state.block_index + 1
        worker, exc = self._train_workers()
        try:
            # a worker's error is blamed like the coordinator's; an
            # interrupt (not an Exception) leaves as itself
            if exc is not None:
                raise exc
            with np.errstate(over="ignore", invalid="ignore"):
                self._synchronize()
        except Exception as failure:
            message, cause = self._blame(failure, block_index, worker)
            raise TrainingError(message) from cause
        if self.config.reset_momentum:
            self.velocity.fill(0.0)
        return self.sync_state

    def close(self) -> None:
        for _ in self._threads:
            self._tasks.put(None)
        for t in self._threads:
            t.join()
        self._threads = []

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
