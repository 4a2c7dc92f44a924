"""Frame error rate and per-checkpoint evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .models import Batch, ModelSpec, forward_workspace, predict_frames
from .sync import Checkpoint

__all__ = [
    "EvalRecord",
    "frame_error_rate",
    "evaluate_checkpoints",
    "curve_spread",
    "shadow_verdicts",
]


@dataclass(frozen=True)
class EvalRecord:
    """One point of an error curve: strategy, fractional epoch, FER."""

    strategy: str
    epoch: float
    fer: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.fer <= 1.0):
            raise ValueError(f"fer must be in [0, 1], got {self.fer}")


def frame_error_rate(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of frames whose predicted class differs from the label."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(
            f"shape mismatch: {predictions.shape} vs {labels.shape}"
        )
    if predictions.size == 0:
        raise ValueError("frame_error_rate needs at least one frame")
    return float(np.mean(predictions != labels))


def evaluate_checkpoints(
    checkpoints: Sequence[Checkpoint], eval_set: Batch, spec: ModelSpec
) -> list[EvalRecord]:
    """FER of every checkpoint on ``eval_set``, in checkpoint order.

    Evaluation is read-only: parameters are immutable and only the forward
    pass runs. Every checkpoint's forward writes into one workspace, so the
    activations are allocated once per call, not once per checkpoint.
    """
    workspace = forward_workspace(spec, eval_set.num_frames)
    records = []
    for cp in checkpoints:
        preds = predict_frames(
            spec, cp.params, eval_set.inputs, eval_set.seq_lengths, workspace=workspace
        )
        fer = frame_error_rate(preds, eval_set.targets)
        records.append(EvalRecord(cp.strategy, cp.epoch, fer))
    return records


def curve_spread(records: Sequence[EvalRecord], strategy: str) -> float:
    """Standard deviation of one strategy's FER series."""
    return float(np.std([r.fer for r in records if r.strategy == strategy]))


def shadow_verdicts(
    final_fer: Mapping[str, float], records: Sequence[EvalRecord]
) -> tuple[bool, bool]:
    """One run's two shadow-model verdicts: EMA's final FER is at most the
    raw global model's, and EMA's FER curve spreads less than MA's."""
    return (
        final_fer["ema"] <= final_fer["bmuf"],
        curve_spread(records, "ema") < curve_spread(records, "ma"),
    )
