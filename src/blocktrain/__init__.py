"""Desk-scale simulator for block-synchronized data-parallel training.

N simulated workers run mini-batch SGD with momentum on disjoint shards of a
synthetic sequence-classification corpus. At every block boundary the local
models are averaged (as whole vectors or shard by shard) and the global
model advances through a momentum-filtered update. Two shadow models, a
running mean and an exponential moving average of the global models, observe
every synchronization without ever being broadcast back, and compete with the
raw global model as the final deliverable.
"""

from .cluster import (
    Cluster,
    ClusterConfig,
    ShardPlan,
    TrainingError,
    WorkerState,
    decentralized_aggregate,
    make_shard_plan,
)
from .data import (
    Corpus,
    SplitSpec,
    Utterance,
    generate_corpus,
    load_corpus,
    save_corpus,
    shard_dataset,
    split_by_speaker,
    stack_frames,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    write_run_artifacts,
)
from .metrics import EvalRecord, evaluate_checkpoints, frame_error_rate
from .models import (
    Batch,
    LstmSpec,
    MlpSpec,
    backward,
    forward_loss,
    forward_workspace,
    init_params,
    param_count,
    predict_frames,
)
from .numerics import ParamVector, make_rng, mean_reduce, substream
from .optim import sgd_step
from .sync import (
    Checkpoint,
    ShadowState,
    SyncState,
    load_checkpoint,
    save_checkpoint,
    shadow_update,
)

__version__ = "0.1.0"
