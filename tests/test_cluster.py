import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrain.cluster import (
    Cluster,
    ClusterConfig,
    ShardPlan,
    WorkerState,
    decentralized_aggregate,
    make_shard_plan,
)
from blocktrain.models import Batch, MlpSpec, init_params
from blocktrain.numerics import ParamVector, make_rng, mean_reduce, substream
from blocktrain.optim import SgdState, sgd_step
from blocktrain.sync import ShadowState, SyncState


def pv(values):
    return ParamVector(np.asarray(values, dtype=float))


class TestShardPlan:
    def test_even_split(self):
        plan = make_shard_plan(10, 2)
        assert plan.bounds == (0, 5, 10)

    def test_remainder_to_front(self):
        plan = make_shard_plan(10, 3)
        assert plan.bounds == (0, 4, 7, 10)

    def test_empty_shards_allowed(self):
        plan = make_shard_plan(2, 4)
        assert plan.bounds == (0, 1, 2, 2, 2)

    @given(
        length=st.integers(min_value=0, max_value=500),
        n=st.integers(min_value=1, max_value=16),
    )
    def test_partition_properties(self, length, n):
        plan = make_shard_plan(length, n)
        sizes = [hi - lo for lo, hi in (plan.range_of(j) for j in range(n))]
        assert sum(sizes) == length
        assert plan.num_shards == n
        assert max(sizes) - min(sizes) <= 1
        assert plan.bounds[0] == 0 and plan.bounds[-1] == length


class TestDecentralizedAggregate:
    @given(
        n=st.sampled_from([1, 2, 3, 8]),
        length=st.integers(min_value=1, max_value=64),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_centralized_mean_bitwise(self, n, length, seed):
        rng = np.random.default_rng(seed)
        models = [pv(rng.normal(size=length)) for _ in range(n)]
        plan = make_shard_plan(length, n)
        got = decentralized_aggregate(models, plan)
        want = mean_reduce(models)
        assert got.values.tobytes() == want.values.tobytes()

    def test_single_worker_identity(self):
        model = pv([1.5, -2.0, 3.0])
        out = decentralized_aggregate([model], make_shard_plan(3, 1))
        assert out.values.tobytes() == model.values.tobytes()

    def test_identical_workers(self):
        model = pv(np.linspace(-1, 1, 7))
        out = decentralized_aggregate([model] * 5, make_shard_plan(7, 5))
        assert out.values.tobytes() == model.values.tobytes()

    def test_more_workers_than_parameters(self):
        rng = np.random.default_rng(5)
        models = [pv(rng.normal(size=2)) for _ in range(6)]
        out = decentralized_aggregate(models, make_shard_plan(2, 6))
        assert out.values.tobytes() == mean_reduce(models).values.tobytes()

    def test_plan_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match plan"):
            decentralized_aggregate([pv([1.0, 2.0])], make_shard_plan(3, 1))


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="num_workers"):
            ClusterConfig(num_workers=0)
        with pytest.raises(ValueError, match="block_size"):
            ClusterConfig(block_size=0)
        with pytest.raises(ValueError, match="transport"):
            ClusterConfig(transport="ring")


# worker 1's failures: a target class beyond the 2 outputs, and a velocity
# near the float maximum that carries the worker's parameters past it
CRASH = (Batch(np.zeros((2, 4)), np.array([0, 7])), 0.0, "out of range")
DIVERGE = (Batch(np.zeros((2, 4)), np.array([0, 1])), 1.5e308, "non-finite")


def tiny_setup(n_workers, transport, *, block_size=3, seed=99, eta=0.9, zeta=1.0):
    """A small 2-class problem with one batch per worker utterance."""
    rng = make_rng(seed)
    spec = MlpSpec((4, 5, 2))
    theta0 = init_params(spec, rng)
    workers = []
    for i in range(n_workers):
        batches = tuple(
            Batch(rng.normal(size=(6, 4)), rng.integers(2, size=6)) for _ in range(4)
        )
        workers.append(
            WorkerState(
                i,
                theta0,
                SgdState.initial(len(theta0), 0.2, 0.5),
                batches,
                substream(seed, 5, i),
            )
        )
    sync = SyncState.initial(theta0, eta, zeta)
    shadow = ShadowState.initial(theta0, 0.9)
    config = ClusterConfig(n_workers, block_size, transport)
    return spec, workers, sync, shadow, config


def run_blocks(threaded, transport, blocks=4, n_workers=3, event_log=None, **kw):
    spec, workers, sync, shadow, config = tiny_setup(n_workers, transport, **kw)
    trajectory = []
    with Cluster(
        spec, workers, sync, shadow, config, threaded=threaded, event_log=event_log
    ) as cluster:
        for _ in range(blocks):
            state = cluster.run_block()
            trajectory.append(state.global_model.values.tobytes())
        worker_models = [w.model.values.tobytes() for w in cluster.workers]
        final_global = cluster.sync_state.global_model.values.tobytes()
    return trajectory, worker_models, final_global


class TestCluster:
    def test_broadcast_postcondition(self):
        for threaded in (False, True):
            _, worker_models, final_global = run_blocks(threaded, "centralized")
            assert all(m == final_global for m in worker_models)

    def test_threaded_matches_serial_bitwise(self):
        for transport in ("centralized", "decentralized"):
            serial, _, _ = run_blocks(False, transport)
            threaded, _, _ = run_blocks(True, transport)
            assert serial == threaded

    def test_transports_match_bitwise(self):
        a, _, _ = run_blocks(False, "centralized")
        b, _, _ = run_blocks(False, "decentralized")
        assert a == b

    def test_repeat_run_deterministic(self):
        a = run_blocks(True, "decentralized")
        b = run_blocks(True, "decentralized")
        assert a == b

    def test_single_worker_degenerate_equals_plain_sgd(self):
        # one worker, one batch, eta=0, zeta=1: a block of k steps must equal
        # k bare optimizer steps, and averaging must be a no-op
        rng = make_rng(123)
        spec = MlpSpec((3, 4, 2))
        theta0 = init_params(spec, rng)
        batch = Batch(rng.normal(size=(5, 3)), rng.integers(2, size=5))
        k = 6
        worker = WorkerState(
            0, theta0, SgdState.initial(len(theta0), 0.1, 0.7), (batch,), substream(1, 5, 0)
        )
        sync = SyncState.initial(theta0, 0.0, 1.0)
        config = ClusterConfig(1, k, "centralized")
        with Cluster(spec, [worker], sync, None, config, threaded=False) as cluster:
            state = cluster.run_block()
        from blocktrain.models import backward

        params = theta0
        opt = SgdState.initial(len(theta0), 0.1, 0.7)
        for _ in range(k):
            _, grad = backward(spec, params, batch)
            params, opt = sgd_step(params, grad, opt)
        assert state.global_model.values.tobytes() == params.values.tobytes()

    def test_momentum_persists_across_blocks(self):
        spec, workers, sync, shadow, config = tiny_setup(2, "centralized")
        with Cluster(spec, workers, sync, shadow, config, threaded=False) as cluster:
            cluster.run_block()
            velocities = [w.opt.velocity.values.copy() for w in cluster.workers]
            assert any(np.any(v != 0) for v in velocities)
            cluster.run_block()

    def test_momentum_reset_on_broadcast_when_configured(self):
        for threaded in (False, True):
            spec, workers, sync, shadow, config = tiny_setup(2, "centralized")
            config = ClusterConfig(
                config.num_workers,
                config.block_size,
                config.transport,
                reset_momentum=True,
            )
            with Cluster(
                spec, workers, sync, shadow, config, threaded=threaded
            ) as cluster:
                cluster.run_block()
                for w in cluster.workers:
                    assert np.array_equal(
                        w.opt.velocity.values, np.zeros(len(w.model))
                    )

    def test_worker_count_mismatch(self):
        spec, workers, sync, shadow, config = tiny_setup(2, "centralized")
        with pytest.raises(ValueError, match="workers"):
            Cluster(spec, workers[:1], sync, shadow, config, threaded=False)

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError, match="empty shard"):
            WorkerState(0, pv([0.0]), SgdState.initial(1, 0.1), (), make_rng(0))

    @pytest.mark.parametrize("transport", ["centralized", "decentralized"])
    def test_barrier_no_worker_starts_next_block_early(self, transport):
        event_log: list = []
        run_blocks(True, transport, blocks=3, n_workers=4, event_log=event_log)
        position = {}
        for idx, (phase, block, worker) in enumerate(event_log):
            position.setdefault((phase, block), []).append(idx)
        for block in (1, 2):
            last_applied = max(position[("applied", block)])
            first_start_next = min(position[("start", block + 1)])
            assert last_applied < first_start_next
            assert len(position[("applied", block)]) == 4

    @pytest.mark.parametrize(
        "threaded, transport, bad, velocity, error",
        [
            pytest.param(True, "centralized", *CRASH, id="centralized"),
            pytest.param(True, "decentralized", *CRASH, id="decentralized"),
            pytest.param(False, "centralized", *CRASH, id="serial-centralized"),
            pytest.param(False, "decentralized", *CRASH, id="serial-decentralized"),
            pytest.param(True, "decentralized", *DIVERGE, id="diverged"),
            pytest.param(False, "decentralized", *DIVERGE, id="serial-diverged"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_worker_exception_propagates(
        self, threaded, transport, bad, velocity, error
    ):
        spec, workers, sync, shadow, config = tiny_setup(2, transport)
        model = workers[1].model
        opt = SgdState(pv(np.full(len(model), velocity)), 0.2, 0.9)
        workers[1] = WorkerState(1, model, opt, (bad,), make_rng(0))
        outcome = []

        def body():
            try:
                with Cluster(
                    spec, workers, sync, shadow, config, threaded=threaded
                ) as cluster:
                    cluster.run_block()
            except BaseException as exc:
                outcome.append(exc)

        # a daemon thread, so that a hang fails the test instead of the suite
        runner = threading.Thread(target=body, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "crashed worker hung the cluster"
        assert len(outcome) == 1
        assert isinstance(outcome[0], ValueError)
        assert error in str(outcome[0])
        assert "block 1" in str(outcome[0])
        assert "worker 1" in str(outcome[0])

    @pytest.mark.parametrize("threaded", [True, False])
    def test_coordinator_exception_names_block(self, threaded):
        # block learning rate 1e300 overflows the filtered global update in
        # block 2 (block 1 stays finite)
        spec, workers, sync, shadow, config = tiny_setup(2, "centralized", zeta=1e300)
        with Cluster(spec, workers, sync, shadow, config, threaded=threaded) as cluster:
            with np.errstate(over="ignore", invalid="ignore"):
                cluster.run_block()
                with pytest.raises(ValueError) as failure:
                    cluster.run_block()
        message = "block 2: parameter vector contains non-finite values"
        assert str(failure.value) == message
