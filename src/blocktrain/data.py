"""Synthetic sequence corpus, speaker-grouped splitting, stacking, sharding.

The corpus stands in for a real acoustic dataset at desk scale: each
utterance is a sequence of Gaussian feature frames whose class changes with a
small per-frame probability, shifted by a per-speaker offset so the task is
learnable but speaker-dependent. Splits are grouped by speaker so no speaker
leaks across train/validation/test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import Batch
from .numerics import frozen

__all__ = [
    "Utterance",
    "Corpus",
    "SplitSpec",
    "generate_corpus",
    "split_by_speaker",
    "stack_frames",
    "shard_dataset",
    "save_corpus",
    "load_corpus",
]


@dataclass(frozen=True)
class Utterance:
    """One speaker-tagged sequence of feature frames with per-frame labels.

    The frames and labels are checked as one :class:`~blocktrain.models.Batch`
    and kept as its read-only ``inputs`` and ``targets``: writable arrays are
    copied, read-only ones are adopted as they are.
    """

    speaker: int
    frames: np.ndarray  # (T >= 1, base_dim) float64
    labels: np.ndarray  # (T,) int64, non-negative

    def __post_init__(self) -> None:
        batch = Batch(self.frames, self.labels)
        object.__setattr__(self, "frames", batch.inputs)
        object.__setattr__(self, "labels", batch.targets)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class Corpus:
    utterances: tuple[Utterance, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "utterances", tuple(self.utterances))

    def __len__(self) -> int:
        return len(self.utterances)

    @property
    def speakers(self) -> tuple[int, ...]:
        return tuple(sorted({u.speaker for u in self.utterances}))


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions; the grouping key is the speaker."""

    train: float = 0.8
    val: float = 0.1
    test: float = 0.1

    def __post_init__(self) -> None:
        for name, f in (("train", self.train), ("val", self.val), ("test", self.test)):
            if not (0.0 <= f <= 1.0):
                raise ValueError(f"{name} fraction must be in [0, 1], got {f}")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1")


def generate_corpus(
    num_speakers: int,
    utt_per_speaker: int,
    num_frames: int,
    base_dim: int,
    num_classes: int,
    rng: np.random.Generator,
    *,
    label_change_prob: float = 0.1,
    class_separation: float = 1.5,
    speaker_spread: float = 0.6,
    noise_scale: float = 1.0,
) -> Corpus:
    """Gaussian-cluster frames with temporally persistent labels.

    Every class gets a mean vector drawn from N(0, class_separation^2); every
    speaker gets a fixed offset drawn from N(0, speaker_spread^2). Within an
    utterance the label stays put and switches to a different class with
    probability ``label_change_prob`` per frame. Frames are the class mean
    plus the speaker offset plus N(0, noise_scale^2) noise. Deterministic for
    a given generator state: after the class means, each speaker draws its
    offset, then each of its utterances draws its first label, its per-frame
    change flags and hops (only when ``num_classes > 1``), then its noise.
    """
    if min(num_speakers, utt_per_speaker, num_frames, base_dim, num_classes) < 1:
        raise ValueError("all corpus counts must be >= 1")
    class_means = rng.normal(0.0, class_separation, size=(num_classes, base_dim))
    utterances = []
    for speaker in range(num_speakers):
        offset = rng.normal(0.0, speaker_spread, size=base_dim)
        for _ in range(utt_per_speaker):
            # label t is the first label plus every hop up to frame t, mod num_classes
            steps = np.zeros(num_frames, dtype=np.int64)
            first = rng.integers(num_classes)
            if num_classes > 1:
                change = rng.random(num_frames) < label_change_prob
                hops = rng.integers(1, num_classes, size=num_frames)
                steps[change] = hops[change]
            steps[0] = first
            labels = frozen(np.cumsum(steps) % num_classes)
            noise = rng.normal(0.0, noise_scale, size=(num_frames, base_dim))
            frames = frozen(class_means[labels] + offset + noise)
            utterances.append(Utterance(speaker, frames, labels))
    return Corpus(tuple(utterances))


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def split_by_speaker(
    corpus: Corpus, spec: SplitSpec, rng: np.random.Generator
) -> tuple[Corpus, Corpus, Corpus]:
    """Assign whole speakers to train/val/test so the speaker sets are disjoint.

    Speakers are shuffled deterministically and counted out with
    round-half-up on the train and validation fractions; test takes the
    remainder. Utterances keep their corpus order within each split.
    """
    speakers = corpus.speakers
    if len(speakers) < 3:
        raise ValueError(f"need at least 3 speakers to split, got {len(speakers)}")
    order = [speakers[i] for i in rng.permutation(len(speakers))]
    n_train = min(_round_half_up(spec.train * len(speakers)), len(speakers))
    n_val = min(_round_half_up(spec.val * len(speakers)), len(speakers) - n_train)
    train_set = set(order[:n_train])
    val_set = set(order[n_train : n_train + n_val])
    test_set = set(order[n_train + n_val :])
    pick = lambda chosen: Corpus(
        tuple(u for u in corpus.utterances if u.speaker in chosen)
    )
    return pick(train_set), pick(val_set), pick(test_set)


def stack_frames(
    frames: np.ndarray, labels: np.ndarray, k: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``k`` consecutive frames (no overlap) into super-frames.

    Super-frame ``i`` is frames ``[i*k, i*k + k)`` flattened; its label is the
    label of the last frame in the group (the newest one a streaming model
    would be predicting). Trailing frames that do not fill a group are
    dropped.
    """
    if k < 1:
        raise ValueError(f"stacking factor must be >= 1, got {k}")
    frames = np.asarray(frames, dtype=np.float64)
    labels = np.asarray(labels)
    n = frames.shape[0] // k
    stacked = frames[: n * k].reshape(n, k * frames.shape[1])
    super_labels = labels[k - 1 :: k][:n]
    return stacked, super_labels


def shard_dataset(
    corpus: Corpus, num_shards: int, rng: np.random.Generator
) -> tuple[Corpus, ...]:
    """Deal utterances round-robin after a deterministic shuffle.

    The shards partition the input exactly and their sizes differ by at most
    one utterance.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    order = rng.permutation(len(corpus.utterances))
    shuffled = [corpus.utterances[i] for i in order]
    return tuple(Corpus(tuple(shuffled[j::num_shards])) for j in range(num_shards))


# ---------------------------------------------------------------------------
# corpus container format (version 1): a .npz archive holding
# ``format_version``, per-utterance ``speakers`` and ``frame_counts``, and the
# frame/label arrays of all utterances concatenated in order.

CORPUS_FORMAT_VERSION = 1


def save_corpus(path: str | Path, corpus: Corpus) -> None:
    utts = corpus.utterances
    np.savez(
        path,
        format_version=CORPUS_FORMAT_VERSION,
        speakers=np.array([u.speaker for u in utts], dtype=np.int64),
        frame_counts=np.array([u.num_frames for u in utts], dtype=np.int64),
        frames=np.concatenate([u.frames for u in utts]),
        labels=np.concatenate([u.labels for u in utts]),
    )


def load_corpus(path: str | Path) -> Corpus:
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != CORPUS_FORMAT_VERSION:
            raise ValueError(f"unsupported corpus format version {version}")
        speakers = data["speakers"]
        counts = data["frame_counts"]
        frames = frozen(data["frames"])
        labels = frozen(data["labels"])
    bounds = np.concatenate([[0], np.cumsum(counts)])
    utterances = tuple(
        Utterance(int(s), frames[lo:hi], labels[lo:hi])
        for s, lo, hi in zip(speakers, bounds[:-1], bounds[1:])
    )
    return Corpus(utterances)
