import importlib
import pkgutil

import blocktrain

# names the root has exported all along; a module that drops one from its
# ``__all__`` drops it from the root too
ROOT_NAMES = (
    "Batch",
    "Checkpoint",
    "Cluster",
    "ClusterConfig",
    "ConfigError",
    "Corpus",
    "EvalRecord",
    "ExperimentConfig",
    "ExperimentResult",
    "LstmSpec",
    "MlpSpec",
    "ParamVector",
    "ShadowState",
    "ShardPlan",
    "SplitSpec",
    "SyncState",
    "TrainingError",
    "Utterance",
    "WorkerState",
    "backward",
    "decentralized_aggregate",
    "evaluate_checkpoints",
    "forward_loss",
    "forward_workspace",
    "frame_error_rate",
    "generate_corpus",
    "init_params",
    "load_checkpoint",
    "load_corpus",
    "make_rng",
    "make_shard_plan",
    "mean_reduce",
    "param_count",
    "predict_frames",
    "run_experiment",
    "save_checkpoint",
    "save_corpus",
    "sgd_step",
    "shadow_update",
    "shard_dataset",
    "split_by_speaker",
    "stack_frames",
    "substream",
    "write_run_artifacts",
)


def test_every_public_name_imports_from_the_root():
    # ``cli`` is the console script's module, not part of the library
    names = [m.name for m in pkgutil.iter_modules(blocktrain.__path__) if m.name != "cli"]
    declared = []
    for name in names:
        module = importlib.import_module(f"blocktrain.{name}")
        declared += module.__all__
        for public in module.__all__:
            assert getattr(blocktrain, public) is getattr(module, public), f"{name}.{public}"
    # each name is declared by one module, so the root's star imports bind it once
    assert len(declared) == len(set(declared)), sorted(
        public for public in set(declared) if declared.count(public) > 1
    )


def test_names_the_root_exported_before_stay():
    for public in ROOT_NAMES:
        assert hasattr(blocktrain, public), public
