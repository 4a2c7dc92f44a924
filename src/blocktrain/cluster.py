"""Simulated N-worker cluster with barrier-synchronized block training.

A block is one fixed sequence, defined once in :meth:`Cluster.run_block`:
every worker trains on its own shard stream, the coordinator averages the
local models (whole vectors under the centralized transport, shard by shard
under the decentralized one), the filtered global update runs, the shadows
observe it, and the new global model is broadcast back before the next block
may start. Every average goes through one centered-mean kernel
(:func:`~blocktrain.numerics.centered_mean`) that sums in ascending worker
order, so all modes and transports produce bit-identical results. The
cluster owns every array a block writes, so a warmed-up block allocates no
parameter-sized array.
"""

from __future__ import annotations

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
    "make_shard_plan",
    "decentralized_aggregate",
]

TRANSPORTS = ("centralized", "decentralized")


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
        params: np.ndarray,
        velocity: np.ndarray,
        grad: np.ndarray,
        config: ClusterConfig,
    ) -> None:
        """``config.block_size`` momentum steps in place on the worker's rows,
        with ``grad`` as the gradient buffer of every step."""
        for _ in range(config.block_size):
            backward(spec, params, self.next_batch(), out=grad)
            sgd_step(params, grad, velocity, config.learning_rate, config.momentum)


class Cluster:
    """Coordinator plus N workers; one ``run_block`` call per sync block.

    The cluster owns every array a block writes. Worker state is two
    ``(N, P)`` arrays, ``params`` (every row starts as the initial global
    model) and ``velocity`` (zeros); ``workers[i]`` must have index ``i``
    and trains in place on row ``i`` of each, with one gradient row of
    ``grads`` per training thread. With ``threaded=False`` the workers train
    in ascending order on the calling thread and share one gradient row;
    with ``threaded=True`` each is a daemon thread that takes block numbers
    from its inbox queue and posts back only the error it raised, if any. The
    coordinator then averages the rows of ``params`` (``_synchronize``; the
    transport is the one choice there) into its own buffer, filters, updates
    the shadows and assigns the new global model to every row of ``params``
    while the workers wait at the barrier, so both modes and both transports
    produce bitwise-identical trajectories. The filter and shadows write
    into the cluster's own pairs of arrays, so the returned ``sync_state``
    and ``shadow_state`` are views that the next block overwrites: copy what
    you keep.

    Finiteness is checked once per block, on the average: NaN and inf stay
    non-finite under the local steps and the mean, so a worker that diverged
    anywhere in the block fails it. Only then are the rows scanned, to name
    the lowest diverged worker. A failure is raised from ``run_block`` with
    the block named, and the worker too when local training failed or
    diverged (the lowest index of either kind, in both modes); numpy's
    overflow warnings are silenced on every thread that trains or syncs,
    since the check reports the divergence. The cluster is then only fit to
    be closed.
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
        self.threaded = threaded
        length = len(sync_state.global_model)
        self.plan = make_shard_plan(length, len(self.workers))
        self.params = np.tile(sync_state.global_model.values, (len(self.workers), 1))
        self.velocity = np.zeros_like(self.params)
        on_threads = self.workers if threaded else []
        self.grads = np.empty((len(on_threads) or 1, length))
        # the coordinator's arrays: the average, the filter's (global, delta),
        # the shadows' (MA, EMA) and scratch
        self._mean = np.empty(length)
        self._sync_out = np.empty((2, length))
        self._shadow_out = np.empty((2, length))
        self._work = np.empty((2, length))
        self._results: queue.Queue = queue.Queue()
        self._inboxes = [queue.Queue() for _ in on_threads]
        self._threads = [
            threading.Thread(target=self._worker_loop, args=(w,), daemon=True)
            for w in on_threads
        ]
        for t in self._threads:
            t.start()

    # -- worker side ---------------------------------------------------

    def _train(self, w: WorkerState, grad: np.ndarray) -> BaseException | None:
        """One local block on ``w``; the error it raised, if any."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                w.run_local_block(
                    self.spec,
                    self.params[w.index],
                    self.velocity[w.index],
                    grad,
                    self.config,
                )
        except BaseException as exc:  # handed to the coordinator, which raises it
            return exc
        return None

    def _worker_loop(self, w: WorkerState) -> None:
        inbox = self._inboxes[w.index]
        grad = self.grads[w.index]
        while inbox.get() is not None:
            self._results.put((w.index, self._train(w, grad)))

    # -- coordinator side ----------------------------------------------

    def _train_workers(
        self, block_index: int
    ) -> tuple[int | None, BaseException | None]:
        """One local block on every worker: ``(None, None)``, or the lowest
        failing worker and its error. Serial mode stops at the first
        failure; threaded mode waits for every reply."""
        if self.threaded:
            for inbox in self._inboxes:
                inbox.put(block_index)
            replies = [self._results.get() for _ in self.workers]
            failures = [reply for reply in replies if reply[1] is not None]
            return min(failures, key=lambda reply: reply[0], default=(None, None))
        for w in self.workers:
            exc = self._train(w, self.grads[0])
            if exc is not None:
                return w.index, exc
        return None, None

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
        self, exc: BaseException, block_index: int, worker: int | None
    ) -> BaseException:
        """``exc`` prefixed with its block and, when local training failed,
        the worker. The lowest worker below ``worker`` (below N when no
        worker failed) whose parameters are not all finite takes the blame
        instead, with the divergence error."""
        finite = np.isfinite(self.params[:worker]).all(axis=1)
        if not finite.all():
            worker, exc = int(finite.argmin()), ValueError(NON_FINITE)
        where = f"block {block_index}" + ("" if worker is None else f", worker {worker}")
        exc.args = (f"{where}: {exc}",)
        return exc

    def run_block(self) -> SyncState:
        """Train one block on every worker, synchronize, broadcast.

        Returns the new sync state; afterwards every row of ``params`` holds
        the freshly broadcast global model, and ``velocity`` persists unless
        ``reset_momentum`` is set.
        """
        block_index = self.sync_state.block_index + 1
        worker, exc = self._train_workers(block_index)
        if exc is None:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    self._synchronize()
            except Exception as sync_exc:
                exc = sync_exc
        if exc is not None:
            raise self._blame(exc, block_index, worker)
        # every worker is idle at the barrier, so the coordinator installs the
        # broadcast itself
        self.params[...] = self.sync_state.global_model.values
        if self.config.reset_momentum:
            self.velocity.fill(0.0)
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
