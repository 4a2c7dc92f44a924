"""Block-level synchronization strategies and the shadow averagers.

Two things live here. First, the global-model update rule: plain model
averaging, or the filtered variant where the averaged delta passes through a
momentum accumulator (block momentum ``eta``) and a scale (block learning
rate ``zeta``) before moving the global model. Second, the two shadow models
that observe every synchronization output without ever being broadcast back:
an equal-weight running mean (MA) and an exponential moving average (EMA).
Shadows are pure observers; training trajectories are identical with or
without them.

Both updates can write into arrays the caller owns (``out=``, with ``work=``
scratch), and ``out`` may be the state's own arrays: the cluster keeps one
set of buffers and updates its live state in place on every block. Without
``out`` the same body runs on fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .numerics import ParamVector, frozen

__all__ = [
    "SyncState",
    "ShadowState",
    "Checkpoint",
    "STRATEGIES",
    "bmuf_apply",
    "shadow_update",
    "save_checkpoint",
    "load_checkpoint",
]

STRATEGIES = ("bmuf", "ma", "ema")


@dataclass(frozen=True)
class SyncState:
    """Global model plus the filtered-update accumulator.

    ``delta`` is the zero vector until the first synchronization.
    """

    global_model: ParamVector
    delta: ParamVector
    block_momentum: float
    block_learning_rate: float
    block_index: int = 0

    def __post_init__(self) -> None:
        if len(self.global_model) != len(self.delta):
            raise ValueError("global model and delta must have equal length")
        if not (0.0 <= self.block_momentum < 1.0):
            raise ValueError(
                f"block_momentum must be in [0, 1), got {self.block_momentum}"
            )
        if not (self.block_learning_rate > 0.0 and np.isfinite(self.block_learning_rate)):
            raise ValueError(
                f"block_learning_rate must be positive, got {self.block_learning_rate}"
            )
        if self.block_index < 0:
            raise ValueError("block_index must be non-negative")

    @staticmethod
    def initial(
        model: ParamVector, block_momentum: float, block_learning_rate: float
    ) -> "SyncState":
        return SyncState(
            model, ParamVector.zeros(len(model)), block_momentum, block_learning_rate
        )


@dataclass(frozen=True)
class ShadowState:
    """Running-mean and exponential shadow models with their sync counter.

    ``ma_model`` is meaningful once ``sync_count >= 1``; the exponential model
    starts from the model training started with, so no bias-correction term
    is needed.
    """

    ma_model: ParamVector
    ema_model: ParamVector
    ema_rate: float
    sync_count: int = 0

    def __post_init__(self) -> None:
        if len(self.ma_model) != len(self.ema_model):
            raise ValueError("shadow models must have equal length")
        if not (0.0 <= self.ema_rate <= 1.0):
            raise ValueError(f"ema_rate must be in [0, 1], got {self.ema_rate}")
        if self.sync_count < 0:
            raise ValueError("sync_count must be non-negative")

    @staticmethod
    def initial(model: ParamVector, ema_rate: float = 0.99) -> "ShadowState":
        return ShadowState(model, model, ema_rate)


def bmuf_apply(
    state: SyncState,
    theta_bar: ParamVector,
    *,
    out: Sequence[np.ndarray] | None = None,
    work: np.ndarray | None = None,
) -> SyncState:
    """Advance the global model given this block's averaged local model.

    Update rule, with ``eta`` the block momentum and ``zeta`` the block
    learning rate::

        G     = theta_bar - global
        delta' = eta * delta + zeta * G
        global' = global + delta'

    ``global'`` is evaluated in the algebraically equal form
    ``(1 - zeta) * global + zeta * theta_bar + eta * delta`` so that with
    ``eta=0, zeta=1`` it reduces to the plain average bit for bit.

    ``out`` is the pair of arrays (global', delta') the new state views; it
    may be the state's own pair. ``work`` is ``(2, P)`` scratch. Both are
    fresh when omitted.
    """
    if len(theta_bar) != len(state.global_model):
        raise ValueError(
            f"length mismatch: {len(theta_bar)} vs {len(state.global_model)}"
        )
    eta = state.block_momentum
    zeta = state.block_learning_rate
    prev = state.global_model.values
    bar = theta_bar.values
    new_global, delta = np.empty((2, len(prev))) if out is None else out
    carried, step = np.empty((2, len(prev))) if work is None else work
    # every term of the formulas above in its operand order, so the bits are
    # those of the expressions; the old delta and global are read before
    # their slots are written
    np.multiply(state.delta.values, eta, out=carried)
    np.subtract(bar, prev, out=step)
    step *= zeta
    np.multiply(bar, zeta, out=delta)  # parked in delta's slot until global' is done
    np.multiply(prev, 1.0 - zeta, out=new_global)
    new_global += delta
    new_global += carried
    np.add(step, carried, out=delta)
    return SyncState(
        ParamVector(frozen(new_global.view())),
        ParamVector(frozen(delta.view())),
        eta,
        zeta,
        state.block_index + 1,
    )


def shadow_update(
    shadow: ShadowState,
    theta_g: ParamVector,
    *,
    out: Sequence[np.ndarray] | None = None,
    work: np.ndarray | None = None,
) -> ShadowState:
    """Fold one synchronization output into both shadow models.

    The running mean gives every observed global model equal weight; the
    exponential model keeps ``ema_rate`` of its previous value. Neither
    result is ever fed back into training.

    ``out`` is the pair of distinct arrays (MA, EMA) the new state views;
    it may be the state's own pair. ``work`` is ``(2, P)`` scratch. Both are
    fresh when omitted.
    """
    if len(theta_g) != len(shadow.ma_model):
        raise ValueError(f"length mismatch: {len(theta_g)} vs {len(shadow.ma_model)}")
    t = shadow.sync_count + 1
    g = theta_g.values
    ma, ema = np.empty((2, len(g))) if out is None else out
    tmp = np.empty(len(g)) if work is None else work[0]
    if t == 1:
        np.copyto(ma, g)
    else:
        np.subtract(g, shadow.ma_model.values, out=tmp)
        tmp /= t
        np.add(tmp, shadow.ma_model.values, out=ma)
    alpha = shadow.ema_rate
    np.multiply(g, 1.0 - alpha, out=tmp)
    np.multiply(shadow.ema_model.values, alpha, out=ema)
    ema += tmp
    return replace(
        shadow,
        ma_model=ParamVector(frozen(ma.view())),
        ema_model=ParamVector(frozen(ema.view())),
        sync_count=t,
    )


# ---------------------------------------------------------------------------
# checkpoint serialization
#
# Format (version 1): a numpy .npz archive with scalar entries
# ``format_version``, ``strategy`` (one of STRATEGIES), ``block_index``,
# ``epoch`` (fractional), and the float64 array ``values``.

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    """A (strategy, step) tagged snapshot of one candidate model."""

    strategy: str
    block_index: int
    epoch: float
    params: ParamVector

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


def save_checkpoint(path: str | Path, checkpoint: Checkpoint) -> None:
    np.savez(
        path,
        format_version=CHECKPOINT_FORMAT_VERSION,
        strategy=checkpoint.strategy,
        block_index=checkpoint.block_index,
        epoch=checkpoint.epoch,
        values=checkpoint.params.values,
    )


def load_checkpoint(path: str | Path) -> Checkpoint:
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        return Checkpoint(
            strategy=str(data["strategy"]),
            block_index=int(data["block_index"]),
            epoch=float(data["epoch"]),
            params=ParamVector(data["values"]),
        )
