"""The benchmark's workloads: one experiment config each, plus what it stresses.

Each workload is a single ``run_experiment`` call. They differ in which layer
does most of the work, so that a change to one layer shows on one workload
and, as a prediction of no change, not on another:

* ``lstm``: the default recurrent config; exact BPTT in ``models.backward``
  is ~85% of the run and the P=5,640 sync work is <2%.
* ``mlp_wide``: a 77,320-parameter MLP synced after every mini-batch through
  the centralized ``mean_reduce``; P-sized vector work (``optim``,
  ``numerics``, ``sync``) is ~40% of the run, and wide-net evaluation ~23%.
* ``mlp_threaded``: the default MLP with two worker threads exchanging
  shards peer to peer over queues; the coordinator waits in
  ``Cluster.run_block`` (self time) for ~90% of training time, and for ~35%
  of it no worker is training. Two workers keep the thread count at the two
  cores of the reference machine; with eight, the run would mostly measure
  handing the interpreter lock between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 2024


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    threaded: bool
    why: str
    # traced entry points (besides COMMON_ENTRY_POINTS) that must record calls
    expects: tuple[str, ...]


# Every workload runs the whole pipeline, so each of these must be called.
COMMON_ENTRY_POINTS = (
    "data.generate_corpus",
    "data.split_by_speaker",
    "data.shard_dataset",
    "data.stack_frames",
    "models.init_params",
    "models.backward",
    "models.predict_frames",
    "optim.sgd_step",
    "numerics.ParamVector",
    "sync.bmuf_apply",
    "sync.shadow_update",
    "cluster.run_block",
    "cluster.run_local_block",
    "metrics.evaluate_checkpoints",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lstm",
            # configs/default_lstm.cfg: the library defaults with these two changes
            {"model": "lstm", "learning_rate": 0.15},
            False,
            "default LSTM config, serial: exact BPTT in models.backward dominates "
            "and P-sized sync work is <2%, so a sync-kernel change predicts no change here",
            ("cluster.decentralized_aggregate",),
        ),
        Workload(
            "mlp_wide",
            {"mlp_hidden": (256, 256), "block_size": 1, "transport": "centralized"},
            False,
            "P=77,320 MLP synced every mini-batch, serial, centralized: P-sized work "
            "(sgd_step, mean_reduce, bmuf_apply, shadow_update) is ~40% of the run, eval ~23%",
            ("numerics.mean_reduce",),
        ),
        Workload(
            "mlp_threaded",
            {"num_workers": 2},
            True,
            "default MLP with 2 worker threads, decentralized: the cluster thread/queue "
            "barrier protocol; run_block self time is ~90% of train time, no worker trains in ~35%",
            ("cluster.queue_put",),
        ),
    )
}


def make_config(name: str, seed: int):
    """The workload's ``ExperimentConfig`` for ``seed``, and its threading mode."""
    from blocktrain import ExperimentConfig

    w = WORKLOADS[name]
    return ExperimentConfig(**w.overrides, seed=seed), w.threaded
