import copy
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocktrain.cluster
from blocktrain.cluster import (
    Cluster,
    ClusterConfig,
    ShardPlan,
    TrainingError,
    WorkerState,
    decentralized_aggregate,
    make_shard_plan,
)
from blocktrain.models import Batch, LstmSpec, MlpSpec, backward, init_params, param_count
from blocktrain.numerics import ParamVector, make_rng, mean_reduce, substream
from blocktrain.optim import sgd_step
from blocktrain.sync import ShadowState, SyncState

from .faults import inject_faults


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


# failures a worker meets in its data: a target class beyond the 2 outputs,
# and a velocity near the float maximum that carries the worker's parameters
# past it
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


def pin_cores(monkeypatch, cores):
    """Make the cluster see ``cores`` cores, so threaded mode trains
    ``min(N, cores)`` slabs, all but slab 0 on helper threads, on any host."""
    monkeypatch.setattr(blocktrain.cluster, "_cores", lambda: cores)


def test_cores_are_the_affinity_mask_else_the_cpu_count(monkeypatch):
    assert blocktrain.cluster._cores() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert blocktrain.cluster._cores() == (os.cpu_count() or 1)


def live_helpers():
    """The cluster helper threads alive in this process."""
    return {t for t in threading.enumerate() if t.name == "slab-helper"}


@pytest.fixture(autouse=True)
def no_helper_left_running():
    # every cluster a test makes must be closed, and close() must join
    # every helper it started
    before = live_helpers()
    yield
    left = live_helpers() - before
    if left:
        pytest.fail(f"{len(left)} cluster helper thread(s) still alive after the test")


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


def run_replayed_block(cluster):
    """Run one block, and check that every worker's row equals bare
    ``backward`` / ``sgd_step`` calls from the global model the block started
    with, on copies of the worker's stream and velocity: equal bytes mean the
    worker started from that model. Returns that model's bytes."""
    start = cluster.sync_state.global_model.values.copy()
    velocity = cluster.velocity.copy()
    streams = copy.deepcopy(cluster.workers)
    config = cluster.config
    cluster.run_block()
    for i, stream in enumerate(streams):
        params = start.copy()
        for _ in range(config.block_size):
            _, grad = backward(cluster.spec, params, stream.next_batch())
            sgd_step(params, grad, velocity[i], config.learning_rate, config.momentum)
        assert cluster.params[i].tobytes() == params.tobytes(), f"worker {i}"
    return start.tobytes()


def block_failure(setup, threaded, velocity=None):
    """The ``TrainingError`` that block 1 of a cluster built from ``setup``
    (``tiny_setup``'s tuple) raises, run under ``bounded``; ``velocity`` maps
    a worker index to the value its velocity row starts at."""

    def body():
        with Cluster(*setup, threaded=threaded) as cluster:
            for i, value in (velocity or {}).items():
                cluster.velocity[i] = value
            cluster.run_block()

    with pytest.raises(TrainingError) as failure:
        bounded(body, timeout=30)
    return failure.value


def diverging(setup, indices):
    """``setup`` with ``DIVERGE``'s batch as the only batch of each worker in
    ``indices`` and momentum 0.9, which lets ``DIVERGE``'s velocity overflow
    within the block."""
    spec, workers, sync, shadow, config = setup
    workers = [
        WorkerState(i, (DIVERGE[0],), make_rng(i)) if i in indices else w
        for i, w in enumerate(workers)
    ]
    return spec, workers, sync, shadow, replace(config, momentum=0.9)


# four workers in two slabs (workers 0-1 on the calling thread, 2-3 on a
# helper thread), in one slab on a one-core host, and serially
SLAB_MODES = pytest.mark.parametrize(
    "cores", [2, 1, None], ids=["threaded", "one-slab", "serial"]
)


def slab_mode(monkeypatch, cores):
    """Pin a ``SLAB_MODES`` core count; ``threaded`` for the cluster."""
    if cores is not None:
        pin_cores(monkeypatch, cores)
    return cores is not None


class TestCluster:
    def test_next_block_starts_every_worker_from_the_global_model(self):
        # the broadcast: every block starts every worker from the global
        # model the block before ended with, byte for byte, so the fifth
        # block starts from run_blocks' final global model
        for threaded in (False, True):
            _, _, final_global = run_blocks(threaded, "centralized")
            setup = tiny_setup(3, "centralized")
            with Cluster(*setup, threaded=threaded) as cluster:
                starts = [run_replayed_block(cluster) for _ in range(5)]
            assert starts[-1] == final_global

    def test_threaded_matches_serial_bitwise(self, monkeypatch):
        # one slab, uneven slabs and one worker per slab train the same bits
        for spec in (MLP, LSTM):
            for transport in ("centralized", "decentralized"):
                serial = run_blocks(False, transport, spec=spec, n_workers=5)
                for cores in (1, 2, 3, 5):
                    pin_cores(monkeypatch, cores)
                    threaded = run_blocks(True, transport, spec=spec, n_workers=5)
                    assert threaded == serial, (cores, transport)

    @pytest.mark.parametrize("cores", [1, 2, 3, 5, 8])
    def test_one_thread_per_slab_at_most_one_per_core(self, cores, monkeypatch):
        # each slab trains its workers with its own gradient row; slab 0
        # trains on the calling thread, every other slab on a helper thread
        threads = {}
        draw = WorkerState.next_batch

        def recording(self):
            threads.setdefault(self.index, set()).add(threading.get_ident())
            return draw(self)

        monkeypatch.setattr(WorkerState, "next_batch", recording)
        pin_cores(monkeypatch, cores)
        caller = threading.get_ident()
        spec, workers, sync, shadow, config = tiny_setup(5, "centralized")
        with Cluster(spec, workers, sync, shadow, config, threaded=True) as cluster:
            assert len(cluster._threads) == min(5, cores) - 1
            assert live_helpers() == set(cluster._threads)
            assert cluster.slabs == make_shard_plan(5, min(5, cores))
            assert cluster.grads.shape == (min(5, cores), cluster.params.shape[1])
            cluster.grads.fill(np.nan)
            cluster.run_block()
            # every slab wrote a gradient row of its own
            assert np.isfinite(cluster.grads).all()
            for s in range(cluster.slabs.num_shards):
                for i in range(*cluster.slabs.range_of(s)):
                    (thread,) = threads[i]
                    assert (thread == caller) == (s == 0), (s, i)
        threads.clear()
        with Cluster(spec, workers, sync, shadow, config, threaded=False) as cluster:
            assert cluster._threads == []
            assert cluster.slabs.bounds == (0, 5)
            cluster.run_block()
        assert threads == dict.fromkeys(range(5), {caller})

    def test_transports_match_bitwise(self):
        for spec in (MLP, LSTM):
            a, _, _ = run_blocks(False, "centralized", spec=spec)
            b, _, _ = run_blocks(False, "decentralized", spec=spec)
            assert a == b

    def test_repeat_run_deterministic(self):
        a = run_blocks(True, "decentralized")
        b = run_blocks(True, "decentralized")
        assert a == b

    def test_broadcast_reaches_threads_under_fast_switching(self, monkeypatch):
        # the coordinator writes only the global model, after the barrier,
        # and every worker reads it in its first local step of the next
        # block; a worker that trained on a stale model would change the
        # trajectory
        pin_cores(monkeypatch, 3)
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
    def test_params_need_no_initial_fill(self, threaded, monkeypatch):
        # each row of params is written by its worker's first local step
        # before anything reads it, so NaN left there from construction
        # changes no byte; a worker that fails before writing its row is
        # still named, since only rows that trained are scanned
        def run(poison):
            spec, workers, sync, shadow, config = tiny_setup(3, "decentralized")
            with Cluster(spec, workers, sync, shadow, config, threaded=threaded) as c:
                if poison:
                    c.params.fill(np.nan)
                trajectory = [c.run_block().global_model.values.tobytes() for _ in range(3)]
                return trajectory, [row.tobytes() for row in c.params]

        assert run(poison=True) == run(poison=False)
        inject_faults(monkeypatch, {0: RuntimeError("crash")})
        with pytest.raises(TrainingError) as failure:
            bounded(lambda: run(poison=True), timeout=30)
        assert str(failure.value) == "block 1, worker 0: crash"
        assert type(failure.value.__cause__) is RuntimeError

    @pytest.mark.parametrize("cores", [1, 3], ids=["one-slab", "three-slabs"])
    def test_every_row_starts_on_a_cache_line(self, cores, monkeypatch):
        # P = 27 is not a multiple of 8 floats, so rows stay aligned only
        # if the row stride is padded to whole 64-byte lines
        pin_cores(monkeypatch, cores)
        spec = MlpSpec((4, 3, 3))
        assert param_count(spec) == 27
        spec, workers, sync, shadow, config = tiny_setup(3, "centralized", spec=spec)
        with Cluster(spec, workers, sync, shadow, config, threaded=True) as cluster:
            assert cluster.grads.shape == (cores, 27)
            rows = [
                *cluster.params, *cluster.velocity, *cluster.grads, cluster._mean,
                *cluster._sync_out, *cluster._shadow_out, *cluster._work,
            ]
            for i, a in enumerate(rows):
                assert a.shape == (27,)
                assert a.ctypes.data % 64 == 0
                assert a.flags.c_contiguous
                for b in rows[i + 1 :]:
                    assert not np.shares_memory(a, b)
            # the model every worker's first step of the next block reads
            cluster.run_block()
            assert cluster.sync_state.global_model.values.ctypes.data % 64 == 0

    @pytest.mark.parametrize("threaded", [True, False], ids=["threaded", "serial"])
    @pytest.mark.parametrize(
        "indices", [(0, 0), (1, 0), (0, 2)], ids=["duplicate", "swapped", "gap"]
    )
    def test_misnumbered_workers_rejected(self, threaded, indices):
        # rows and slabs are indexed by worker index: a misnumbered worker
        # would train on another worker's rows
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

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        turns=st.lists(st.booleans(), max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_next_batch_is_the_workers_own_shuffled_stream(self, seed, n, turns):
        # every pass visits each batch once, in a permutation drawn from the
        # worker's own generator at the start of the pass; workers with equal
        # seeds draw equal sequences, however their draws interleave
        batches = tuple(Batch(np.zeros((1, 4)), np.array([0])) for _ in range(n))
        position = {id(b): k for k, b in enumerate(batches)}
        rng = make_rng(seed)
        want = [int(k) for _ in range(len(turns) + 3) for k in rng.permutation(n)]
        solo = WorkerState(0, batches, make_rng(seed))
        got = [position[id(solo.next_batch())] for _ in range(3 * n)]
        assert got == want[: 3 * n]
        for p in range(3):
            assert sorted(got[p * n : (p + 1) * n]) == list(range(n))
        pair = [WorkerState(i, batches, make_rng(seed)) for i in range(2)]
        drawn = ([], [])
        for turn in turns:
            drawn[turn].append(position[id(pair[turn].next_batch())])
        for seq in drawn:
            assert seq == want[: len(seq)]

    @pytest.mark.parametrize("transport", ["centralized", "decentralized"])
    def test_barrier_no_worker_starts_next_block_early(self, transport, monkeypatch):
        # every worker must start block b from the global model after block
        # b - 1; one that started early would read the previous block's
        # global model, or one the coordinator is still writing
        pin_cores(monkeypatch, 4)
        trajectory, _, _ = run_blocks(True, transport, blocks=3, n_workers=4)
        spec, workers, sync, shadow, config = tiny_setup(4, transport)
        with Cluster(spec, workers, sync, shadow, config, threaded=True) as cluster:
            starts = [run_replayed_block(cluster) for _ in range(3)]
        assert starts == [sync.global_model.values.tobytes(), *trajectory[:-1]]

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
        setup = spec, workers, sync, shadow, config
        failure = block_failure(setup, threaded, {1: velocity})
        assert isinstance(failure.__cause__, ValueError)
        assert error in str(failure)
        assert "block 1" in str(failure)
        assert "worker 1" in str(failure)

    @SLAB_MODES
    def test_lowest_failing_worker_named(self, cores, monkeypatch):
        # workers 1 and 2 fail in block 1; worker 1 fails last, so with two
        # slabs the replies arrive with the higher-index failure first
        threaded = slab_mode(monkeypatch, cores)
        faults = {1: FloatingPointError("slow failure"), 2: KeyError("fast failure")}
        inject_faults(monkeypatch, faults, slow=1)
        failure = block_failure(tiny_setup(4, "decentralized"), threaded)
        assert isinstance(failure.__cause__, FloatingPointError)
        assert str(failure) == "block 1, worker 1: slow failure"

    def test_slab_0_failure_waits_for_the_helper_slab(self, monkeypatch):
        # worker 1 crashes at once on the calling thread while the helper
        # slab (workers 2-3) still trains; worker 3 then crashes too. The
        # coordinator raises only once the helper has replied, names the
        # lower worker, leaves no reply behind, and close() joins the helper
        pin_cores(monkeypatch, 2)
        faults = {1: RuntimeError("fast failure"), 3: KeyError("slow failure")}
        helper_replied = inject_faults(monkeypatch, faults, slow=3)
        spec, workers, sync, shadow, config = tiny_setup(4, "decentralized")
        seen = []

        def body():
            with Cluster(spec, workers, sync, shadow, config, threaded=True) as cluster:
                seen.append(cluster)
                try:
                    cluster.run_block()
                finally:
                    seen.append(helper_replied.is_set())

        with pytest.raises(TrainingError) as failure:
            bounded(body, timeout=30)
        assert isinstance(failure.value.__cause__, RuntimeError)
        assert str(failure.value) == "block 1, worker 1: fast failure"
        cluster, replied = seen
        assert replied
        assert cluster._results.empty()

    @SLAB_MODES
    @pytest.mark.parametrize("transport", ["centralized", "decentralized"])
    @pytest.mark.parametrize(
        "make_cause",
        [
            lambda: KeyError("missing batch"),
            lambda: FileNotFoundError(2, "No such file or directory", "shard.bin"),
            lambda: UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
        ],
        ids=["KeyError", "FileNotFoundError", "UnicodeDecodeError"],
    )
    def test_failure_is_a_training_error_caused_by_the_original(
        self, cores, transport, make_cause, monkeypatch
    ):
        # exception types whose str() does not simply print their args: the
        # message still names the block and worker, and the worker's own
        # exception object is the cause, unchanged
        threaded = slab_mode(monkeypatch, cores)
        cause = make_cause()
        shown = str(cause)
        inject_faults(monkeypatch, {1: cause})
        failure = block_failure(tiny_setup(4, transport), threaded)
        assert str(failure) == f"block 1, worker 1: {shown}"
        assert failure.__cause__ is cause
        assert str(cause) == shown

    def test_interrupt_on_slab_0_passes_through_after_the_helper_replied(
        self, monkeypatch
    ):
        # an interrupt on the calling thread (slab 0, workers 0-1) is not a
        # training failure: it leaves run_block as itself, but only once the
        # helper slab (workers 2-3) has replied, and close() joins the helper
        pin_cores(monkeypatch, 2)
        interrupt = KeyboardInterrupt()
        helper_replied = inject_faults(monkeypatch, {1: interrupt}, slow=3)
        spec, workers, sync, shadow, config = tiny_setup(4, "decentralized")
        seen = []

        def body():
            with Cluster(spec, workers, sync, shadow, config, threaded=True) as cluster:
                seen.append(cluster)
                try:
                    cluster.run_block()
                finally:
                    seen.append(helper_replied.is_set())

        with pytest.raises(KeyboardInterrupt) as failure:
            bounded(body, timeout=30)
        assert failure.value is interrupt
        assert interrupt.args == ()
        cluster, replied = seen
        assert replied
        assert cluster._results.empty()
        assert cluster._threads == []

    @SLAB_MODES
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_two_diverged_workers_name_the_lower(self, cores, monkeypatch):
        threaded = slab_mode(monkeypatch, cores)
        setup = diverging(tiny_setup(4, "centralized"), (1, 3))
        failure = block_failure(setup, threaded, dict.fromkeys((1, 3), DIVERGE[1]))
        assert isinstance(failure.__cause__, ValueError)
        assert str(failure) == (
            "block 1, worker 1: parameter vector contains non-finite values"
        )

    @SLAB_MODES
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "diverged, crashed, named",
        [(1, 2, "worker 1: parameter vector"), (2, 1, "worker 1: crash")],
        ids=["divergence-first", "crash-first"],
    )
    def test_lowest_failing_worker_named_across_kinds(
        self, cores, diverged, crashed, named, monkeypatch
    ):
        # one worker diverges and another crashes in block 1; the lower of
        # the two is named, whichever kind its failure is
        threaded = slab_mode(monkeypatch, cores)
        inject_faults(monkeypatch, {crashed: RuntimeError("crash")})
        setup = diverging(tiny_setup(4, "decentralized"), (diverged,))
        failure = block_failure(setup, threaded, {diverged: DIVERGE[1]})
        assert str(failure).startswith(f"block 1, {named}")
        cause = failure.__cause__
        assert type(cause) is (ValueError if diverged < crashed else RuntimeError)

    @pytest.mark.parametrize("threaded", [True, False], ids=["threaded", "serial"])
    @pytest.mark.parametrize("transport", ["centralized", "decentralized"])
    # the coordinator silences numpy's overflow warning, which would
    # otherwise become the error here
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_aggregate_overflow_names_the_block(self, threaded, transport):
        # two finite local models whose centered mean overflows: one step
        # with momentum 0.9 moves each worker by 0.9 times its velocity row,
        # to about -1.53e308 and +1.53e308; no worker diverged, so the
        # failure is the coordinator's
        spec, workers, sync, shadow, config = tiny_setup(2, transport)
        setup = spec, workers, sync, shadow, replace(config, momentum=0.9, block_size=1)
        failure = block_failure(setup, threaded, {0: -1.7e308, 1: 1.7e308})
        assert isinstance(failure.__cause__, ValueError)
        assert str(failure) == "block 1: parameter vector contains non-finite values"

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
                with pytest.raises(TrainingError) as failure:
                    cluster.run_block()
        message = "block 2: parameter vector contains non-finite values"
        assert str(failure.value) == message
        assert isinstance(failure.value.__cause__, ValueError)
