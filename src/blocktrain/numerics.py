"""Flat parameter vectors and the deterministic arithmetic every strategy shares.

Model state that crosses the block barrier travels as a :class:`ParamVector`:
an immutable, finite, 1-D float64 array holding every trainable parameter of
one model. The global model, the filter accumulator, the shadows and the
checkpoints are all ParamVectors. The workers train in place on rows of the
cluster's plain ``(N, P)`` arrays, and the reductions read those rows
directly. Each reduction and sync step can write into arrays its caller owns
(``out=``, with ``work=`` scratch); the ParamVector it returns is then a
read-only view of ``out``, validated once, that changes when the caller
next writes there (:meth:`ParamVector.copy` keeps one).
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

NON_FINITE = "parameter vector contains non-finite values"

__all__ = [
    "ParamVector",
    "centered_mean",
    "mean_reduce",
    "as_rows",
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
            raise ValueError(NON_FINITE)
        if arr.flags.writeable:
            arr = frozen(arr.copy())
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[0]

    @staticmethod
    def zeros(length: int) -> "ParamVector":
        return ParamVector(frozen(np.zeros(length)))

    def copy(self) -> "ParamVector":
        """A vector with its own copy of the values, for keeping a view of
        an array its owner will overwrite."""
        return ParamVector(frozen(self.values.copy()))


def centered_mean(parts: Sequence[np.ndarray], out: np.ndarray, work: np.ndarray) -> None:
    """Mean of equal-length arrays as ``parts[0] + sum_i(parts[i] - parts[0]) / N``,
    written into ``out``.

    The one reduction kernel: it sums in list order (callers pass ascending
    worker index) and keeps the mean of N identical arrays exactly equal to
    that array. Every aggregation path calls it, whole vectors or shard
    slices alike, so each element sees the same operation sequence and all
    paths agree bit for bit. ``work`` is scratch of the same length; neither
    it nor ``out`` may overlap a part.
    """
    base = parts[0]
    out.fill(0.0)
    for part in parts[1:]:
        np.subtract(part, base, out=work)
        out += work
    out /= len(parts)
    out += base


def as_rows(vs: Sequence[ParamVector] | np.ndarray) -> list[np.ndarray]:
    """The equal-length 1-D arrays behind a sequence of ParamVectors, or the
    rows of an ``(N, P)`` array, in order."""
    rows = list(vs) if isinstance(vs, np.ndarray) else [v.values for v in vs]
    if len(rows) == 0:
        raise ValueError("need at least one vector")
    for row in rows[1:]:
        if row.shape != rows[0].shape:
            raise ValueError(f"length mismatch: {row.shape[0]} vs {rows[0].shape[0]}")
    return rows


def mean_reduce(
    vs: Sequence[ParamVector] | np.ndarray,
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> ParamVector:
    """Arithmetic mean over workers, summed in ascending worker index
    (see :func:`centered_mean`).

    ``vs`` is a sequence of ParamVectors or the rows of an ``(N, P)`` array.
    The mean is written into ``out`` (length P) and returned as a read-only
    view of it; ``work`` is ``(2, P)`` scratch. Both are fresh arrays when
    omitted. Validating the result is the one finiteness check: a
    non-finite row always makes the mean non-finite.
    """
    rows = as_rows(vs)
    length = rows[0].shape[0]
    out = np.empty(length) if out is None else out
    centered_mean(rows, out, np.empty(length) if work is None else work[0])
    return ParamVector(frozen(out.view()))


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
