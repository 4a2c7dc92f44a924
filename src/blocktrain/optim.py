"""Mini-batch SGD with classical momentum.

One step runs in place, allocation-free, on one worker's rows or on whole
``(N, P)`` arrays. It does not check finiteness: NaN and inf never turn
finite again under this update, so the cluster's once-per-block check (see
:class:`~blocktrain.cluster.Cluster`) still sees every divergence.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sgd_step"]


def sgd_step(
    params: np.ndarray,
    grad: np.ndarray,
    velocity: np.ndarray,
    learning_rate: float,
    momentum: float,
    *,
    start: np.ndarray | None = None,
) -> None:
    """One momentum step, in place on ``params`` and ``velocity``.

    ``velocity' = momentum * velocity - learning_rate * grad`` and
    ``params' = start + velocity'``, evaluated in that operation order, so
    the result is bitwise the out-of-place expression. ``start`` defaults to
    ``params``; any other ``start`` is only read, and the step equals copying
    it into ``params`` and then stepping, bit for bit, without the extra pass
    over ``params``. ``grad`` is scratch: it is scaled by the learning rate
    in place.
    """
    start = params if start is None else start
    shape = params.shape
    if grad.shape != shape or velocity.shape != shape or start.shape != shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grad {grad.shape}, "
            f"velocity {velocity.shape}, start {start.shape}"
        )
    velocity *= momentum
    grad *= learning_rate
    velocity -= grad
    np.add(start, velocity, out=params)
