"""Experiment orchestration: config, corpus, cluster, curves, artifacts.

A run is fully described by an :class:`ExperimentConfig`. Every random choice
derives from the single seed through tagged substreams, so a run is
reproducible bit for bit from its resolved config alone (the manifest a run
writes next to its CSVs is exactly that config).

Config files are flat ``key = value`` text; ``#`` starts a comment, blank
lines are ignored, every key is optional and defaults to the values below.
See ``configs/`` for annotated examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .cluster import TRANSPORTS, Cluster, ClusterConfig, WorkerState
from .data import (
    Corpus,
    SplitSpec,
    generate_corpus,
    shard_dataset,
    split_by_speaker,
    stack_frames,
)
from .metrics import EvalRecord, evaluate_checkpoints
from .models import Batch, LstmSpec, MlpSpec, ModelSpec, init_params
from .numerics import ParamVector, substream
from .sync import Checkpoint, ShadowState, SyncState

__all__ = [
    "ConfigError",
    "TrainingError",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "write_run_artifacts",
    "parse_value",
    "CURVES_HEADER",
    "FINAL_HEADER",
]

CURVES_HEADER = "strategy,epoch,fer"
FINAL_HEADER = "strategy,test_fer"

# substream tags: every random decision of a run hangs off (seed, tag, ...)
TAG_CORPUS = 1
TAG_SPLIT = 2
TAG_SHARD = 3
TAG_INIT = 4
TAG_WORKER = 5


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(f"config key '{key}': {message}")
        self.key = key


class TrainingError(RuntimeError):
    """A block of training failed: a worker crashed or diverged, or the
    coordinator's filter or shadow update did. The message is the block's
    (``block 9, worker 4: ...``); the original error is the ``__cause__``."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; defaults give the standard 8-worker setup."""

    model: str = "mlp"  # mlp | lstm
    mlp_hidden: tuple[int, ...] = (32,)
    lstm_hidden: int = 16
    lstm_layers: int = 2
    num_classes: int = 8
    base_dim: int = 12
    stack: int = 3
    speakers: int = 200
    utterances_per_speaker: int = 10
    frames_per_utterance: int = 30
    label_change_prob: float = 0.1
    class_separation: float = 1.3
    speaker_spread: float = 0.6
    noise_scale: float = 1.2
    train_fraction: float = 0.7
    val_fraction: float = 0.1
    test_fraction: float = 0.2
    num_workers: int = 8
    block_size: int = 2
    transport: str = "decentralized"
    reset_momentum: bool = False
    block_momentum: float = 0.9
    block_learning_rate: float = 1.0
    ema_rate: float = 0.92
    learning_rate: float = 0.12
    momentum: float = 0.5
    epochs: int = 4
    seed: int = 2024

    def __post_init__(self) -> None:
        object.__setattr__(self, "mlp_hidden", tuple(int(h) for h in self.mlp_hidden))
        check = _require
        for f in fields(self):
            if f.type in ("float", float):
                check(math.isfinite(getattr(self, f.name)), f.name, "must be finite")
        check(self.model in ("mlp", "lstm"), "model", "must be 'mlp' or 'lstm'")
        check(all(h >= 1 for h in self.mlp_hidden), "mlp_hidden", "sizes must be >= 1")
        check(self.lstm_hidden >= 1, "lstm_hidden", "must be >= 1")
        check(self.lstm_layers >= 1, "lstm_layers", "must be >= 1")
        check(self.num_classes >= 1, "num_classes", "must be >= 1")
        check(self.base_dim >= 1, "base_dim", "must be >= 1")
        check(self.stack >= 1, "stack", "must be >= 1")
        check(self.speakers >= 3, "speakers", "need at least 3 speakers")
        check(self.utterances_per_speaker >= 1, "utterances_per_speaker", "must be >= 1")
        check(
            self.frames_per_utterance >= self.stack,
            "frames_per_utterance",
            "must be >= stack (otherwise utterances stack to zero frames)",
        )
        check(
            0.0 <= self.label_change_prob <= 1.0, "label_change_prob", "must be in [0, 1]"
        )
        check(self.class_separation >= 0.0, "class_separation", "must be >= 0")
        check(self.speaker_spread >= 0.0, "speaker_spread", "must be >= 0")
        check(self.noise_scale >= 0.0, "noise_scale", "must be >= 0")
        for key in ("train_fraction", "val_fraction", "test_fraction"):
            check(0.0 <= getattr(self, key) <= 1.0, key, "must be in [0, 1]")
        check(
            abs(self.train_fraction + self.val_fraction + self.test_fraction - 1.0)
            <= 1e-9,
            "train_fraction",
            "train/val/test fractions must sum to 1",
        )
        check(self.num_workers >= 1, "num_workers", "must be >= 1")
        check(self.block_size >= 1, "block_size", "must be >= 1")
        check(self.transport in TRANSPORTS, "transport", f"must be one of {TRANSPORTS}")
        check(0.0 <= self.block_momentum < 1.0, "block_momentum", "must be in [0, 1)")
        check(self.block_learning_rate > 0.0, "block_learning_rate", "must be > 0")
        check(0.0 <= self.ema_rate <= 1.0, "ema_rate", "must be in [0, 1]")
        check(self.learning_rate > 0.0, "learning_rate", "must be > 0")
        check(0.0 <= self.momentum < 1.0, "momentum", "must be in [0, 1)")
        check(self.epochs >= 1, "epochs", "must be >= 1")
        check(self.seed >= 0, "seed", "must be a non-negative integer")

    # -- derived objects -------------------------------------------------

    @property
    def input_dim(self) -> int:
        return self.stack * self.base_dim

    def model_spec(self) -> ModelSpec:
        if self.model == "mlp":
            return MlpSpec((self.input_dim, *self.mlp_hidden, self.num_classes))
        return LstmSpec(
            self.input_dim, self.lstm_hidden, self.lstm_layers, self.num_classes
        )

    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(
            self.learning_rate,
            self.momentum,
            self.block_size,
            self.transport,
            self.reset_momentum,
        )

    def split_spec(self) -> SplitSpec:
        return SplitSpec(self.train_fraction, self.val_fraction, self.test_fraction)

    # -- flat key=value round trip ---------------------------------------

    def to_text(self) -> str:
        lines = ["# blocktrain experiment config (resolved)"]
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                rendered = ",".join(str(v) for v in value)
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            lines.append(f"{f.name} = {rendered}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "ExperimentConfig":
        values: dict[str, object] = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, rendered = line.partition("=")
            key = key.strip()
            if not sep:
                raise ConfigError(key or raw.strip(), "expected 'key = value'")
            if key in values:
                raise ConfigError(key, "duplicate key")
            values[key] = parse_value(key, rendered.strip())
        return ExperimentConfig(**values)

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text())

    @staticmethod
    def from_file(path: str | Path) -> "ExperimentConfig":
        return ExperimentConfig.from_text(Path(path).read_text())

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(key, message)


def _parse_bool(rendered: str) -> bool:
    lowered = rendered.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true or false, got {rendered!r}")


def parse_value(key: str, rendered: str) -> object:
    """One config value parsed as config files parse it; raises
    :class:`ConfigError` naming ``key`` if it is unknown or unparsable."""
    parsers = _field_parsers()
    if key not in parsers:
        raise ConfigError(key, "unknown key")
    try:
        return parsers[key](rendered)
    except ValueError:
        raise ConfigError(key, f"cannot parse value {rendered!r}") from None


def _field_parsers() -> dict:
    parsers = {}
    for f in fields(ExperimentConfig):
        if f.name == "mlp_hidden":
            parsers[f.name] = lambda s: tuple(
                int(part.strip()) for part in s.split(",") if part.strip()
            )
        elif f.type in ("bool", bool):
            parsers[f.name] = _parse_bool
        elif f.type in ("int", int):
            parsers[f.name] = int
        elif f.type in ("float", float):
            parsers[f.name] = float
        else:
            parsers[f.name] = str
    return parsers


# ---------------------------------------------------------------------------
# running


@dataclass
class ExperimentResult:
    """Everything a finished run produced, still in memory."""

    config: ExperimentConfig
    checkpoints: list[Checkpoint]
    val_records: list[EvalRecord]
    test_records: list[EvalRecord]
    final_test_fer: dict[str, float]
    blocks_per_epoch: int
    trajectory: list[ParamVector] | None = None
    sync_state: SyncState | None = None
    shadow_state: ShadowState | None = None


def _utterance_batch(frames, labels, k: int) -> Batch:
    stacked, super_labels = stack_frames(frames, labels, k)
    return Batch(stacked, super_labels)


def _concat_batch(corpus: Corpus, k: int) -> Batch:
    parts = [stack_frames(u.frames, u.labels, k) for u in corpus.utterances]
    inputs = np.concatenate([p[0] for p in parts])
    labels = np.concatenate([p[1] for p in parts])
    lengths = tuple(p[0].shape[0] for p in parts)
    return Batch(inputs, labels, lengths)


def run_experiment(
    config: ExperimentConfig,
    *,
    threaded: bool = True,
    shadows_enabled: bool = True,
    record_trajectory: bool = False,
) -> ExperimentResult:
    """Run the full pipeline: corpus, split, shard, train, evaluate.

    One epoch is ``ceil(largest shard size / block_size)`` blocks; four
    checkpoints are taken per epoch, at the blocks closest to the quarter
    boundaries, and the last block of the final epoch is always a checkpoint,
    so the final models are the last checkpoint's models.
    """
    rng_corpus = substream(config.seed, TAG_CORPUS)
    corpus = generate_corpus(
        config.speakers,
        config.utterances_per_speaker,
        config.frames_per_utterance,
        config.base_dim,
        config.num_classes,
        rng_corpus,
        label_change_prob=config.label_change_prob,
        class_separation=config.class_separation,
        speaker_spread=config.speaker_spread,
        noise_scale=config.noise_scale,
    )
    train, val, test = split_by_speaker(
        corpus, config.split_spec(), substream(config.seed, TAG_SPLIT)
    )
    if len(val) == 0:
        raise ConfigError("val_fraction", "validation split received no utterances")
    if len(test) == 0:
        raise ConfigError("test_fraction", "test split received no utterances")
    shards = shard_dataset(train, config.num_workers, substream(config.seed, TAG_SHARD))
    if any(len(s) == 0 for s in shards):
        raise ConfigError(
            "num_workers", "more workers than training utterances; some shards are empty"
        )
    spec = config.model_spec()
    theta0 = init_params(spec, substream(config.seed, TAG_INIT))
    sync_state = SyncState.initial(
        theta0, config.block_momentum, config.block_learning_rate
    )
    shadow = ShadowState.initial(theta0, config.ema_rate) if shadows_enabled else None
    workers = [
        WorkerState(
            i,
            tuple(
                _utterance_batch(u.frames, u.labels, config.stack)
                for u in shards[i].utterances
            ),
            substream(config.seed, TAG_WORKER, i),
        )
        for i in range(config.num_workers)
    ]
    blocks_per_epoch = math.ceil(max(len(s) for s in shards) / config.block_size)
    if blocks_per_epoch < 4:
        raise ConfigError(
            "block_size",
            "needs at least 4 blocks per epoch to place 4 checkpoints; "
            "shrink block_size or add training data",
        )
    checkpoint_tags: dict[int, float] = {}
    for e in range(config.epochs):
        for q in (1, 2, 3, 4):
            block = e * blocks_per_epoch + math.ceil(q * blocks_per_epoch / 4)
            checkpoint_tags[block] = e + q / 4
    # the cluster overwrites its sync and shadow state on every block, so
    # the trajectory and the checkpoints keep copies
    trajectory: list[ParamVector] | None = [] if record_trajectory else None
    checkpoints: list[Checkpoint] = []
    with Cluster(
        spec,
        workers,
        sync_state,
        shadow,
        config.cluster_config(),
        threaded=threaded,
    ) as cluster:
        for t in range(1, config.epochs * blocks_per_epoch + 1):
            try:
                state = cluster.run_block()
            except Exception as exc:
                raise TrainingError(str(exc)) from exc
            if trajectory is not None:
                trajectory.append(state.global_model.copy())
            tag = checkpoint_tags.get(t)
            if tag is not None:
                checkpoints.append(Checkpoint("bmuf", t, tag, state.global_model.copy()))
                if cluster.shadow_state is not None:
                    checkpoints.append(
                        Checkpoint("ma", t, tag, cluster.shadow_state.ma_model.copy())
                    )
                    checkpoints.append(
                        Checkpoint("ema", t, tag, cluster.shadow_state.ema_model.copy())
                    )
        final_sync = cluster.sync_state
        final_shadow = cluster.shadow_state
    # the final states keep only their own buffers alive; the (N, P) arrays
    # go before evaluation
    del cluster
    val_batch = _concat_batch(val, config.stack)
    test_batch = _concat_batch(test, config.stack)
    val_records = evaluate_checkpoints(checkpoints, val_batch, spec)
    test_records = evaluate_checkpoints(checkpoints, test_batch, spec)
    strategies_per_cp = 3 if shadows_enabled else 1
    final_test = {r.strategy: r.fer for r in test_records[-strategies_per_cp:]}
    return ExperimentResult(
        config=config,
        checkpoints=checkpoints,
        val_records=val_records,
        test_records=test_records,
        final_test_fer=final_test,
        blocks_per_epoch=blocks_per_epoch,
        trajectory=trajectory,
        sync_state=final_sync,
        shadow_state=final_shadow,
    )


# ---------------------------------------------------------------------------
# artifacts


def _fmt(x: float) -> str:
    return repr(float(x))


def write_run_artifacts(result: ExperimentResult, out_dir: str | Path) -> None:
    """Write ``curves.csv``, ``final.csv`` and ``manifest.cfg`` into ``out_dir``.

    The curves hold the validation FER of every checkpoint; ``final.csv``
    holds the test FER of the final models. The manifest is the resolved
    config and reproduces the run bit for bit when passed back to ``run``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "curves.csv", "w", newline="") as fh:
        fh.write(CURVES_HEADER + "\n")
        for r in result.val_records:
            fh.write(f"{r.strategy},{_fmt(r.epoch)},{_fmt(r.fer)}\n")
    with open(out / "final.csv", "w", newline="") as fh:
        fh.write(FINAL_HEADER + "\n")
        for strategy in ("bmuf", "ma", "ema"):
            if strategy in result.final_test_fer:
                fh.write(f"{strategy},{_fmt(result.final_test_fer[strategy])}\n")
    (out / "manifest.cfg").write_text(result.config.to_text())
