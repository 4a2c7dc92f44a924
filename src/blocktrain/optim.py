"""Mini-batch SGD with classical momentum, one state per worker.

The step runs in place on the worker's own parameter and velocity arrays and
allocates nothing. It does not check finiteness: NaN and inf never turn
finite again under this update, so the worker's once-per-block check (see
:class:`~blocktrain.cluster.WorkerState`) still sees every divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SgdState", "sgd_step"]


@dataclass(frozen=True, eq=False)
class SgdState:
    """Velocity buffer plus hyperparameters; owned exclusively by one worker.

    The hyperparameters are fixed; the velocity is a writable 1-D float64
    array (a copy of the one given) that :func:`sgd_step` updates in place.
    """

    velocity: np.ndarray
    learning_rate: float
    momentum: float = 0.0

    def __post_init__(self) -> None:
        if not (self.learning_rate > 0.0 and np.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        velocity = np.array(self.velocity, dtype=np.float64)
        if velocity.ndim != 1:
            raise ValueError(f"velocity must be 1-D, got shape {velocity.shape}")
        object.__setattr__(self, "velocity", velocity)

    @staticmethod
    def initial(length: int, learning_rate: float, momentum: float = 0.0) -> "SgdState":
        return SgdState(np.zeros(length), learning_rate, momentum)


def sgd_step(params: np.ndarray, grad: np.ndarray, state: SgdState) -> None:
    """One momentum step, in place on ``params`` and ``state.velocity``.

    ``velocity' = momentum * velocity - learning_rate * grad`` and
    ``params' = params + velocity'``, evaluated in that operation order, so
    the result is bitwise the out-of-place expression. ``grad`` is scratch:
    it is scaled by the learning rate in place.
    """
    velocity = state.velocity
    if len(params) != len(grad) or len(params) != len(velocity):
        raise ValueError(
            f"length mismatch: params {len(params)}, grad {len(grad)}, "
            f"velocity {len(velocity)}"
        )
    velocity *= state.momentum
    grad *= state.learning_rate
    velocity -= grad
    params += velocity
