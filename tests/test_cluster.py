import sys
import threading
import time
import tracemalloc
from dataclasses import replace

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
from blocktrain.models import Batch, LstmSpec, MlpSpec, init_params, param_count
from blocktrain.numerics import ParamVector, make_rng, mean_reduce, substream
from blocktrain.optim import sgd_step
from blocktrain.sync import ShadowState, SyncState


def pv(values):
    return ParamVector(np.asarray(values, dtype=float))


def bounded(fn, timeout=60):
    """``fn()`` run on a daemon thread: its result, or its exception raised
    here; the test fails with "hung" if it has not finished in ``timeout``
    seconds (a daemon thread, so that a hang fails the test, not the suite)."""
    outcome = []

    def body():
        try:
            outcome.append((fn(), None))
        except BaseException as exc:
            outcome.append((None, exc))

    runner = threading.Thread(target=body, daemon=True)
    runner.start()
    runner.join(timeout=timeout)
    if runner.is_alive():
        pytest.fail(f"hung: not finished after {timeout} s")
    result, exc = outcome[0]
    if exc is not None:
        raise exc
    return result


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

    @given(
        n=st.sampled_from([1, 2, 3, 8]),
        length=st.integers(min_value=1, max_value=64),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_into_out_match_param_vectors_bitwise(self, n, length, seed):
        # the cluster's call: the rows of its (N, P) array, averaged into
        # its own buffer with its own scratch
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, length))
        models = [pv(row) for row in rows]
        plan = make_shard_plan(length, n)
        want = mean_reduce(models).values.tobytes()
        def sharded(vs, **kw):
            return decentralized_aggregate(vs, plan, **kw)

        for aggregate in (mean_reduce, sharded):
            out = np.full(length, np.nan)
            got = aggregate(rows, out=out, work=np.full((2, length), np.nan))
            assert np.shares_memory(got.values, out)
            assert got.values.tobytes() == want
            assert aggregate(models).values.tobytes() == want


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="block_size"):
            ClusterConfig(0.1, block_size=0)
        with pytest.raises(ValueError, match="transport"):
            ClusterConfig(0.1, transport="ring")


# worker 1's failures: a target class beyond the 2 outputs, and a velocity
# near the float maximum that carries the worker's parameters past it
CRASH = (Batch(np.zeros((2, 4)), np.array([0, 7])), 0.0, "out of range")
DIVERGE = (Batch(np.zeros((2, 4)), np.array([0, 1])), 1.5e308, "non-finite")


MLP = MlpSpec((4, 5, 2))
LSTM = LstmSpec(4, 3, num_layers=2, output_dim=2)


def tiny_setup(
    n_workers, transport, *, spec=MLP, block_size=3, seed=99, eta=0.9, zeta=1.0
):
    """A small 2-class problem with one batch (two 3-frame sequences) per
    worker utterance."""
    rng = make_rng(seed)
    theta0 = init_params(spec, rng)
    workers = []
    for i in range(n_workers):
        batches = tuple(
            Batch(rng.normal(size=(6, 4)), rng.integers(2, size=6), (3, 3))
            for _ in range(4)
        )
        workers.append(WorkerState(i, batches, substream(seed, 5, i)))
    sync = SyncState.initial(theta0, eta, zeta)
    shadow = ShadowState.initial(theta0, 0.9)
    config = ClusterConfig(0.2, 0.5, block_size, transport)
    return spec, workers, sync, shadow, config


def run_blocks(threaded, transport, blocks=4, n_workers=3, **kw):
    spec, workers, sync, shadow, config = tiny_setup(n_workers, transport, **kw)
    trajectory = []
    with Cluster(spec, workers, sync, shadow, config, threaded=threaded) as cluster:
        for _ in range(blocks):
            state = cluster.run_block()
            trajectory.append(state.global_model.values.tobytes())
        worker_models = [row.tobytes() for row in cluster.params]
        final_global = cluster.sync_state.global_model.values.tobytes()
    return trajectory, worker_models, final_global


class TestCluster:
    def test_broadcast_postcondition(self):
        for threaded in (False, True):
            _, worker_models, final_global = run_blocks(threaded, "centralized")
            assert all(m == final_global for m in worker_models)

    def test_threaded_matches_serial_bitwise(self):
        for spec in (MLP, LSTM):
            for transport in ("centralized", "decentralized"):
                serial, _, _ = run_blocks(False, transport, spec=spec)
                threaded, _, _ = run_blocks(True, transport, spec=spec)
                assert serial == threaded

    def test_transports_match_bitwise(self):
        for spec in (MLP, LSTM):
            a, _, _ = run_blocks(False, "centralized", spec=spec)
            b, _, _ = run_blocks(False, "decentralized", spec=spec)
            assert a == b

    def test_repeat_run_deterministic(self):
        a = run_blocks(True, "decentralized")
        b = run_blocks(True, "decentralized")
        assert a == b

    def test_broadcast_reaches_threads_under_fast_switching(self):
        # the coordinator writes each worker's model between blocks and the
        # worker thread reads it in the next one; a worker that trained on a
        # stale model would change the trajectory
        serial = run_blocks(False, "decentralized", blocks=6, n_workers=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = bounded(
                lambda: run_blocks(True, "decentralized", blocks=6, n_workers=6)
            )
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_single_worker_degenerate_equals_plain_sgd(self):
        # one worker, one batch, eta=0, zeta=1: a block of k steps must equal
        # k bare optimizer steps, and averaging must be a no-op
        rng = make_rng(123)
        spec = MlpSpec((3, 4, 2))
        theta0 = init_params(spec, rng)
        batch = Batch(rng.normal(size=(5, 3)), rng.integers(2, size=5))
        k = 6
        worker = WorkerState(0, (batch,), substream(1, 5, 0))
        sync = SyncState.initial(theta0, 0.0, 1.0)
        config = ClusterConfig(0.1, 0.7, k, "centralized")
        with Cluster(spec, [worker], sync, None, config, threaded=False) as cluster:
            state = cluster.run_block()
        from blocktrain.models import backward

        params = theta0.values.copy()
        velocity = np.zeros(len(theta0))
        for _ in range(k):
            _, grad = backward(spec, params, batch)
            sgd_step(params, grad, velocity, 0.1, 0.7)
        assert state.global_model.values.tobytes() == params.tobytes()
        assert cluster.params[0].tobytes() == params.tobytes()
        assert cluster.velocity[0].tobytes() == velocity.tobytes()

    def test_momentum_persists_across_blocks(self):
        for threaded in (False, True):
            spec, workers, sync, shadow, config = tiny_setup(2, "centralized")
            with Cluster(
                spec, workers, sync, shadow, config, threaded=threaded
            ) as cluster:
                buffer = cluster.velocity
                cluster.run_block()
                before = cluster.velocity.copy()
                assert all(np.any(v != 0) for v in before)
                cluster.run_block()
                assert cluster.velocity is buffer
                for v, b in zip(cluster.velocity, before):
                    assert not np.array_equal(v, b)

    def test_momentum_reset_on_broadcast_when_configured(self):
        for threaded in (False, True):
            spec, workers, sync, shadow, config = tiny_setup(2, "centralized")
            config = replace(config, reset_momentum=True)
            with Cluster(
                spec, workers, sync, shadow, config, threaded=threaded
            ) as cluster:
                buffer = cluster.velocity
                cluster.run_block()
                assert cluster.velocity is buffer
                assert np.array_equal(cluster.velocity, np.zeros(cluster.params.shape))

    def test_workers_share_no_buffers(self):
        # every worker trains in place on its own rows; a shared buffer would
        # let one worker's steps leak into another's model
        for threaded in (False, True):
            spec, workers, sync, shadow, config = tiny_setup(3, "decentralized")
            with Cluster(
                spec, workers, sync, shadow, config, threaded=threaded
            ) as cluster:
                for _ in range(2):
                    buffers = [*cluster.params, *cluster.velocity]
                    buffers.append(cluster.sync_state.global_model.values)
                    for i, a in enumerate(buffers):
                        for b in buffers[i + 1 :]:
                            assert not np.shares_memory(a, b)
                    cluster.run_block()

    @pytest.mark.parametrize("threaded", [True, False], ids=["threaded", "serial"])
    @pytest.mark.parametrize(
        "indices", [(0, 0), (1, 0), (0, 2)], ids=["duplicate", "swapped", "gap"]
    )
    def test_misnumbered_workers_rejected(self, threaded, indices):
        # rows and inboxes are indexed by worker index: two workers on one
        # inbox would hang the threaded cluster
        spec, workers, sync, shadow, config = tiny_setup(2, "centralized")
        workers = [replace(w, index=i) for w, i in zip(workers, indices)]
        position = next(p for p, i in enumerate(indices) if i != p)

        def body():
            with Cluster(spec, workers, sync, shadow, config, threaded=threaded) as c:
                c.run_block()

        with pytest.raises(ValueError, match=f"position {position} has index"):
            bounded(body, timeout=30)

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError, match="empty shard"):
            WorkerState(0, (), make_rng(0))

    @pytest.mark.parametrize("transport", ["centralized", "decentralized"])
    def test_barrier_no_worker_starts_next_block_early(self, transport, monkeypatch):
        # every worker must start block b from the global model after block
        # b - 1; one that started early would still hold its own local model
        starts: dict = {}
        train = WorkerState.run_local_block

        def recording(self, spec, params, velocity, grad, config):
            starts.setdefault(self.index, []).append(params.tobytes())
            train(self, spec, params, velocity, grad, config)

        monkeypatch.setattr(WorkerState, "run_local_block", recording)
        theta0 = tiny_setup(4, transport)[2].global_model.values.tobytes()
        trajectory, _, _ = run_blocks(True, transport, blocks=3, n_workers=4)
        assert sorted(starts) == [0, 1, 2, 3]
        for rows in starts.values():
            assert rows == [theta0, *trajectory[:-1]]

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
        # momentum 0.9 lets DIVERGE's velocity overflow within the block
        config = replace(config, momentum=0.9)
        workers[1] = WorkerState(1, (bad,), make_rng(0))

        def body():
            with Cluster(
                spec, workers, sync, shadow, config, threaded=threaded
            ) as cluster:
                cluster.velocity[1] = velocity
                cluster.run_block()

        with pytest.raises(ValueError) as failure:
            bounded(body, timeout=30)
        assert error in str(failure.value)
        assert "block 1" in str(failure.value)
        assert "worker 1" in str(failure.value)

    @pytest.mark.parametrize("threaded", [True, False], ids=["threaded", "serial"])
    def test_lowest_failing_worker_named(self, threaded, monkeypatch):
        # workers 1 and 2 fail in block 1; worker 1 fails last, so threaded
        # replies arrive with the higher-index failure first
        train = WorkerState.run_local_block

        def failing(self, spec, params, velocity, grad, config):
            if self.index == 1:
                time.sleep(0.2)
                raise FloatingPointError("slow failure")
            if self.index == 2:
                raise KeyError("fast failure")
            train(self, spec, params, velocity, grad, config)

        monkeypatch.setattr(WorkerState, "run_local_block", failing)
        spec, workers, sync, shadow, config = tiny_setup(4, "decentralized")

        def body():
            with Cluster(
                spec, workers, sync, shadow, config, threaded=threaded
            ) as cluster:
                cluster.run_block()

        with pytest.raises(FloatingPointError) as failure:
            bounded(body, timeout=30)
        assert str(failure.value) == "block 1, worker 1: slow failure"

    @pytest.mark.parametrize("threaded", [True, False], ids=["threaded", "serial"])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_two_diverged_workers_name_the_lower(self, threaded):
        bad, velocity, _ = DIVERGE
        spec, workers, sync, shadow, config = tiny_setup(4, "centralized")
        config = replace(config, momentum=0.9)
        for i in (1, 3):
            workers[i] = WorkerState(i, (bad,), make_rng(i))

        def body():
            with Cluster(
                spec, workers, sync, shadow, config, threaded=threaded
            ) as cluster:
                cluster.velocity[[1, 3]] = velocity
                cluster.run_block()

        with pytest.raises(ValueError) as failure:
            bounded(body, timeout=30)
        assert str(failure.value) == (
            "block 1, worker 1: parameter vector contains non-finite values"
        )

    @pytest.mark.parametrize("threaded", [True, False], ids=["threaded", "serial"])
    @pytest.mark.parametrize(
        "diverged, crashed, named",
        [(1, 2, "worker 1: parameter vector"), (2, 1, "worker 1: crash")],
        ids=["divergence-first", "crash-first"],
    )
    def test_lowest_failing_worker_named_across_kinds(
        self, threaded, diverged, crashed, named, monkeypatch
    ):
        # one worker diverges and another crashes in block 1; the lower of
        # the two is named, whichever kind its failure is
        train = WorkerState.run_local_block

        def failing(self, spec, params, velocity, grad, config):
            if self.index == crashed:
                raise RuntimeError("crash")
            train(self, spec, params, velocity, grad, config)
            if self.index == diverged:
                params[0] = np.inf

        monkeypatch.setattr(WorkerState, "run_local_block", failing)
        spec, workers, sync, shadow, config = tiny_setup(4, "decentralized")

        def body():
            with Cluster(
                spec, workers, sync, shadow, config, threaded=threaded
            ) as cluster:
                cluster.run_block()

        with pytest.raises(Exception) as failure:
            bounded(body, timeout=30)
        assert str(failure.value).startswith(f"block 1, {named}")
        assert type(failure.value) is (ValueError if diverged < crashed else RuntimeError)

    @pytest.mark.parametrize("threaded", [True, False], ids=["threaded", "serial"])
    @pytest.mark.parametrize("transport", ["centralized", "decentralized"])
    # the coordinator silences numpy's overflow warning, which would
    # otherwise become the error here
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_aggregate_overflow_names_the_block(self, threaded, transport, monkeypatch):
        # two finite local models whose centered mean overflows: no worker
        # diverged, so the failure is the coordinator's
        def extreme(self, spec, params, velocity, grad, config):
            params[...] = 1.7e308 if self.index else -1.7e308

        monkeypatch.setattr(WorkerState, "run_local_block", extreme)
        spec, workers, sync, shadow, config = tiny_setup(2, transport)

        def body():
            with Cluster(
                spec, workers, sync, shadow, config, threaded=threaded
            ) as cluster:
                cluster.run_block()

        with pytest.raises(ValueError) as failure:
            bounded(body, timeout=30)
        assert str(failure.value) == "block 1: parameter vector contains non-finite values"

    @pytest.mark.parametrize("transport", ["centralized", "decentralized"])
    def test_warm_block_allocates_no_parameter_sized_array(self, transport):
        # gradients, averages, filter and shadow updates all go into arrays
        # the cluster owns, so a warmed-up block allocates far less than one
        # parameter vector
        spec = MlpSpec((36, 256, 256, 8))
        rng = make_rng(41)
        theta0 = init_params(spec, rng)
        workers = [
            WorkerState(
                i,
                tuple(
                    Batch(rng.normal(size=(10, 36)), rng.integers(8, size=10))
                    for _ in range(3)
                ),
                substream(41, 5, i),
            )
            for i in range(8)
        ]
        sync = SyncState.initial(theta0, 0.9, 1.0)
        shadow = ShadowState.initial(theta0, 0.92)
        config = ClusterConfig(0.12, 0.5, 1, transport)
        with Cluster(spec, workers, sync, shadow, config, threaded=False) as cluster:
            for _ in range(2):  # the second block takes the shadows past t == 1
                cluster.run_block()
            tracemalloc.start()
            try:
                cluster.run_block()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < param_count(spec) * 8

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
