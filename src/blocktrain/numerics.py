"""Flat parameter vectors and the deterministic arithmetic every strategy shares.

Model state that crosses the block barrier travels as a :class:`ParamVector`:
an immutable, finite, 1-D float64 array holding every trainable parameter of
one model. Local models handed to the coordinator, the global model, the
filter accumulator, the shadows and the checkpoints are all ParamVectors.
The workers train in place on rows of the cluster's plain ``(N, P)`` arrays;
a worker's parameter row becomes a ParamVector (a zero-copy read-only view,
validated once) only when handed over at the end of a block.
Reductions always sum in ascending worker order, so the centralized mean and
the shard-by-shard mean agree bit for bit.

Random streams come from numpy's counter-based Philox generator, keyed by a
64-bit seed plus an optional tuple of non-negative integer tags. The same
(seed, tags) pair yields the same stream on every platform; that
reproducibility, not the particular generator, is the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ParamVector",
    "centered_mean",
    "mean_reduce",
    "make_rng",
    "substream",
]


def frozen(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only and return it (helper for zero-copy wrapping)."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Immutable 1-D float64 vector; the unit of synchronization.

    Construction validates that the data is one-dimensional and finite.
    Writable input arrays are copied; arrays already marked read-only are
    wrapped without a copy (see :func:`frozen`).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"parameter vector must be 1-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("parameter vector contains non-finite values")
        if arr.flags.writeable:
            arr = frozen(arr.copy())
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[0]

    @staticmethod
    def zeros(length: int) -> "ParamVector":
        return ParamVector(frozen(np.zeros(length)))


def centered_mean(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Mean of equal-length arrays as ``parts[0] + sum_i(parts[i] - parts[0]) / N``.

    The one reduction kernel: it sums in list order (callers pass ascending
    worker index) and keeps the mean of N identical arrays exactly equal to
    that array. Every aggregation path calls it, whole vectors or shard
    slices alike, so each element sees the same operation sequence and all
    paths agree bit for bit. Returns a new read-only array.
    """
    base = parts[0]
    acc = np.zeros_like(base)
    tmp = np.empty_like(base)
    for part in parts[1:]:
        np.subtract(part, base, out=tmp)
        acc += tmp
    acc /= len(parts)
    acc += base
    return frozen(acc)


def mean_reduce(vs: Sequence[ParamVector]) -> ParamVector:
    """Arithmetic mean over workers, summed in ascending worker index
    (see :func:`centered_mean`)."""
    if len(vs) == 0:
        raise ValueError("mean_reduce needs at least one vector")
    base = vs[0].values
    for v in vs[1:]:
        if v.values.shape[0] != base.shape[0]:
            raise ValueError(
                f"length mismatch: {v.values.shape[0]} vs {base.shape[0]}"
            )
    return ParamVector(centered_mean([v.values for v in vs]))


def make_rng(seed: int) -> np.random.Generator:
    """Philox stream for ``seed``; identical seed, identical stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Independent Philox stream keyed by ``(seed, *tags)``.

    Tags must be non-negative integers. Distinct tag tuples give streams that
    are independent for all practical purposes.
    """
    entropy = [int(seed)] + [int(t) for t in tags]
    if any(t < 0 for t in entropy[1:]):
        raise ValueError("substream tags must be non-negative")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
