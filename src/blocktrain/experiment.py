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
import numbers
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cluster import TRANSPORTS, Cluster, ClusterConfig, TrainingError, WorkerState
from .data import (
    Corpus,
    SplitSpec,
    generate_corpus,
    shard_dataset,
    split_by_speaker,
    stack_frames,
)
from .metrics import EvalRecord, evaluate_checkpoints, shadow_verdicts
from .models import Batch, LstmSpec, MlpSpec, ModelSpec, init_params
from .numerics import ParamVector, frozen, is_integer, substream
from .sync import STRATEGIES, Checkpoint, ShadowState, SyncState, shadow_update

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "SeedRun",
    "ShadowStudy",
    "checkpoint_epochs",
    "run_experiment",
    "replay_checkpoints",
    "shadow_study",
    "write_run_artifacts",
    "parse_lines",
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
    """Invalid configuration; carries the offending key. Its ``args`` are
    ``(key, message)``, so it pickles and copies."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(key, message)
        self.key = key

    def __str__(self) -> str:
        return f"config key '{self.key}': {self.args[1]}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; defaults give the standard 8-worker setup.

    Every value must have its field's type (a bool counts as neither an
    integer nor a real number); a wrong type, like an invalid value, raises
    :class:`ConfigError` naming the key.
    """

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
        check = _require
        for key, type_name in _FIELD_TYPES.items():
            accepts, kind, _ = _TYPE_RULES[type_name]
            value = getattr(self, key)
            check(accepts(value), key, f"must be {kind}, got {value!r}")
            if type_name == "float":
                check(math.isfinite(value), key, "must be finite")
                object.__setattr__(self, key, float(value))
        object.__setattr__(self, "mlp_hidden", tuple(int(h) for h in self.mlp_hidden))
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
        return ExperimentConfig(**parse_lines(text.splitlines()))

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


def _parse_ints(rendered: str) -> tuple[int, ...]:
    # an empty value is no entries; an empty entry (``32,,64``) is an error
    return tuple(int(part) for part in rendered.split(",")) if rendered.strip() else ()


# a bool is not a real number in a config (nor, by is_integer, an integer)
def _is_real(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# per annotated field type: (does a value have it, its name, the parser of
# its config-file text)
_TYPE_RULES = {
    "tuple[int, ...]": (
        lambda v: isinstance(v, (tuple, list)) and all(map(is_integer, v)),
        "a sequence of integers",
        _parse_ints,
    ),
    "int": (is_integer, "an integer", int),
    "float": (_is_real, "a real number", float),
    "bool": (lambda v: isinstance(v, bool), "true or false", _parse_bool),
    "str": (lambda v: isinstance(v, str), "a string", str),
}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def parse_lines(lines: Iterable[str]) -> dict[str, object]:
    """Config-file lines parsed into values: ``#`` starts a comment, blank
    lines are skipped, and a line without ``=``, a repeated or unknown key
    or an unparsable value raises :class:`ConfigError` naming the key."""
    values: dict[str, object] = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rendered = line.partition("=")
        key, rendered = key.strip(), rendered.strip()
        if not sep:
            raise ConfigError(key or raw.strip(), "expected 'key = value'")
        if key in values:
            raise ConfigError(key, "duplicate key")
        if key not in _FIELD_TYPES:
            raise ConfigError(key, "unknown key")
        try:
            values[key] = _TYPE_RULES[_FIELD_TYPES[key]][2](rendered)
        except ValueError:
            raise ConfigError(key, f"cannot parse value {rendered!r}") from None
    return values


# ---------------------------------------------------------------------------
# running


@dataclass
class ExperimentResult:
    """Everything a finished run produced, still in memory.

    A run keeps no per-checkpoint models: it scores each checkpoint as it is
    taken. ``sync_state`` and ``shadow_state`` hold the final models, and
    with ``record_trajectory=True`` :func:`replay_checkpoints` rebuilds every
    checkpoint's models from ``trajectory``.
    """

    config: ExperimentConfig
    val_records: list[EvalRecord]
    test_set: Batch
    final_test_fer: dict[str, float]
    blocks_per_epoch: int
    sync_state: SyncState
    trajectory: list[ParamVector] | None = None
    shadow_state: ShadowState | None = None


def _concat_batch(corpus: Corpus, k: int) -> Batch:
    # the concatenations are fresh arrays of checked data, so the Batch
    # wraps them read-only rather than copying them again
    parts = [stack_frames(u.frames, u.labels, k) for u in corpus.utterances]
    inputs = frozen(np.concatenate([p[0] for p in parts]))
    labels = frozen(np.concatenate([p[1] for p in parts]))
    lengths = tuple(p[0].shape[0] for p in parts)
    return Batch(inputs, labels, lengths)


def checkpoint_epochs(epochs: int, blocks_per_epoch: int) -> dict[int, float]:
    """Block index -> fractional epoch of every checkpoint, in block order:
    four per epoch, at the blocks closest to the quarter boundaries, the
    last being the run's last block."""
    tags: dict[int, float] = {}
    for e in range(epochs):
        for q in (1, 2, 3, 4):
            tags[e * blocks_per_epoch + math.ceil(q * blocks_per_epoch / 4)] = e + q / 4
    return tags


def _candidates(
    block: int, epoch: float, global_model: ParamVector, shadow: ShadowState | None
) -> list[Checkpoint]:
    """The candidate models of one checkpoint, in :data:`STRATEGIES` order."""
    checkpoints = [Checkpoint("bmuf", block, epoch, global_model)]
    if shadow is not None:
        checkpoints.append(Checkpoint("ma", block, epoch, shadow.ma_model))
        checkpoints.append(Checkpoint("ema", block, epoch, shadow.ema_model))
    return checkpoints


def run_experiment(
    config: ExperimentConfig,
    *,
    threaded: bool = True,
    shadows_enabled: bool = True,
    record_trajectory: bool = False,
) -> ExperimentResult:
    """Run the full pipeline: corpus, split, shard, train, evaluate.

    One epoch is ``ceil(largest shard size / block_size)`` blocks, and the
    checkpoints are at :func:`checkpoint_epochs`' blocks, the run's last
    block among them, so the final models are the last checkpoint's models.
    At every checkpoint the live global, MA and EMA models are evaluated on
    the validation set before the next block overwrites them; no checkpoint
    is copied. Once training ends the cluster's worker arrays are released
    and the test set is evaluated once, on the final models, for
    ``final_test_fer``. With ``record_trajectory`` the run keeps a copy of
    every block's global model.
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
    # checked before sharding, which builds one shard per worker; a shard is
    # empty exactly when there are more workers than utterances
    if config.num_workers > len(train):
        raise ConfigError(
            "num_workers", "more workers than training utterances; some shards are empty"
        )
    shards = shard_dataset(train, config.num_workers, substream(config.seed, TAG_SHARD))
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
                Batch(*stack_frames(u.frames, u.labels, config.stack))
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
    last = config.epochs * blocks_per_epoch
    checkpoint_tags = checkpoint_epochs(config.epochs, blocks_per_epoch)
    # built at the first checkpoint, so that setup ends when training starts
    val_batch: Batch | None = None
    val_records: list[EvalRecord] = []
    trajectory: list[ParamVector] | None = [] if record_trajectory else None
    with Cluster(
        spec,
        workers,
        sync_state,
        shadow,
        config.cluster_config(),
        threaded=threaded,
    ) as cluster:
        for t in range(1, last + 1):
            state = cluster.run_block()
            if trajectory is not None:
                trajectory.append(state.global_model.copy())
            if t in checkpoint_tags:
                if val_batch is None:
                    val_batch = _concat_batch(val, config.stack)
                val_records += evaluate_checkpoints(
                    _candidates(
                        t, checkpoint_tags[t], state.global_model, cluster.shadow_state
                    ),
                    val_batch,
                    spec,
                )
        final_sync = cluster.sync_state
        final_shadow = cluster.shadow_state
    # the final states keep only the coordinator's output rows alive; the
    # (N, P) worker arrays go before the test set is evaluated
    del cluster
    test_batch = _concat_batch(test, config.stack)
    final_records = evaluate_checkpoints(
        _candidates(last, checkpoint_tags[last], final_sync.global_model, final_shadow),
        test_batch,
        spec,
    )
    return ExperimentResult(
        config=config,
        val_records=val_records,
        test_set=test_batch,
        final_test_fer={r.strategy: r.fer for r in final_records},
        blocks_per_epoch=blocks_per_epoch,
        trajectory=trajectory,
        sync_state=final_sync,
        shadow_state=final_shadow,
    )


def replay_checkpoints(result: ExperimentResult) -> list[Checkpoint]:
    """Every checkpoint's candidate models of a run made with
    ``record_trajectory=True``, in the order of its ``val_records``: the
    recorded global model, and MA and EMA replayed from the initial model
    with :func:`shadow_update` over the trajectory, which gives the run's
    own shadows bit for bit (shadows never touch training)."""
    config = result.config
    checkpoint_tags = checkpoint_epochs(config.epochs, result.blocks_per_epoch)
    shadow = None
    if result.shadow_state is not None:
        theta0 = init_params(config.model_spec(), substream(config.seed, TAG_INIT))
        shadow = ShadowState.initial(theta0, config.ema_rate)
    checkpoints: list[Checkpoint] = []
    for t, global_model in enumerate(result.trajectory, 1):
        if shadow is not None:
            shadow = shadow_update(shadow, global_model)
        if t in checkpoint_tags:
            checkpoints += _candidates(t, checkpoint_tags[t], global_model, shadow)
    return checkpoints


# ---------------------------------------------------------------------------
# shadow-model study


@dataclass(frozen=True)
class SeedRun:
    """One seed of a shadow study: its wall time (run plus test curve), its
    final models' test FER and its per-checkpoint test FER curve."""

    seconds: float
    final_test_fer: dict[str, float]
    test_curve: list[EvalRecord]


@dataclass(frozen=True)
class ShadowStudy:
    """Per seed, in seed order, its :class:`SeedRun` or the
    :class:`TrainingError` that ended it, and the study's counts. A failed
    seed counts toward neither verdict."""

    runs: list[SeedRun | TrainingError]
    ema_beats_bmuf: int
    ema_steadier_than_ma: int
    failed_seeds: int


def shadow_study(config: ExperimentConfig, seeds: Sequence[int]) -> ShadowStudy:
    """One serial run of ``config`` per seed and its two shadow-model
    verdicts (:func:`metrics.shadow_verdicts`): the metric the acceptance
    suite checks and ``blocktrain sweep`` reports. Each run records its
    trajectory, and its per-checkpoint test curve is evaluated on the
    models :func:`replay_checkpoints` rebuilds from it."""
    runs: list[SeedRun | TrainingError] = []
    beats = steadier = failed = 0
    for seed in seeds:
        start = time.perf_counter()
        try:
            result = run_experiment(
                config.with_seed(seed), threaded=False, record_trajectory=True
            )
        except TrainingError as exc:
            runs.append(exc)
            failed += 1
            continue
        records = evaluate_checkpoints(
            replay_checkpoints(result), result.test_set, config.model_spec()
        )
        runs.append(SeedRun(time.perf_counter() - start, result.final_test_fer, records))
        seed_beats, seed_steadier = shadow_verdicts(result.final_test_fer, records)
        beats += seed_beats
        steadier += seed_steadier
    return ShadowStudy(runs, beats, steadier, failed)


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
        for strategy in STRATEGIES:
            if strategy in result.final_test_fer:
                fh.write(f"{strategy},{_fmt(result.final_test_fer[strategy])}\n")
    (out / "manifest.cfg").write_text(result.config.to_text())
