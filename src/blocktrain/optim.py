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
) -> None:
    """One momentum step, in place on ``params`` and ``velocity``.

    ``velocity' = momentum * velocity - learning_rate * grad`` and
    ``params' = params + velocity'``, evaluated in that operation order, so
    the result is bitwise the out-of-place expression. ``grad`` is scratch:
    it is scaled by the learning rate in place.
    """
    if params.shape != grad.shape or params.shape != velocity.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grad {grad.shape}, "
            f"velocity {velocity.shape}"
        )
    velocity *= momentum
    grad *= learning_rate
    velocity -= grad
    params += velocity
