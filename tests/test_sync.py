import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from blocktrain.numerics import ParamVector, frozen, make_rng, mean_reduce
from blocktrain.sync import (
    Checkpoint,
    ShadowState,
    SyncState,
    bmuf_apply,
    final_models,
    load_checkpoint,
    save_checkpoint,
    shadow_update,
)

from .oracles import bmuf_reference

def pv(values):
    return ParamVector(np.asarray(values, dtype=float))


def view(arr):
    """A ParamVector viewing ``arr``, which its owner may still overwrite."""
    return ParamVector(frozen(arr.view()))


def fresh_state(theta0, eta, zeta):
    return SyncState.initial(pv(theta0), eta, zeta)


class TestBmuf:
    def test_degenerate_is_model_averaging_bitwise(self):
        rng = make_rng(0)
        locals_ = [pv(rng.normal(size=9)) for _ in range(4)]
        state = SyncState.initial(pv(rng.normal(size=9)), 0.0, 1.0)
        # a non-zero accumulator must not leak through when eta == 0
        state = bmuf_apply(state, mean_reduce(locals_))
        state = bmuf_apply(state, mean_reduce(locals_))
        avg = mean_reduce(locals_)
        assert state.global_model.values.tobytes() == avg.values.tobytes()

    def test_first_block_zero_initial_momentum(self):
        state = bmuf_apply(fresh_state([0.0], 0.9, 1.0), mean_reduce([pv([2.0])]))
        assert np.array_equal(state.delta.values, [2.0])
        assert np.array_equal(state.global_model.values, [2.0])
        assert state.block_index == 1

    def test_second_block_hand_recursion(self):
        state = fresh_state([0.0], 0.9, 1.0)
        state = bmuf_apply(state, mean_reduce([pv([2.0])]))
        state = bmuf_apply(state, mean_reduce([pv([2.0])]))
        assert state.delta.values[0] == pytest.approx(1.8, abs=1e-12)
        assert state.global_model.values[0] == pytest.approx(3.8, abs=1e-12)

    def test_matches_reference_recursion(self):
        rng = make_rng(8)
        theta0 = rng.normal(size=6)
        means = [rng.normal(size=6) for _ in range(12)]
        state = fresh_state(theta0, 0.7, 0.9)
        got = []
        for mean in means:
            state = bmuf_apply(state, mean_reduce([pv(mean)]))
            got.append(state.global_model.values)
        want = bmuf_reference(0.7, 0.9, theta0, means)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)

    def test_empty_worker_list(self):
        with pytest.raises(ValueError, match="at least one"):
            bmuf_apply(fresh_state([0.0], 0.9, 1.0), mean_reduce([]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            bmuf_apply(fresh_state([0.0], 0.9, 1.0), mean_reduce([pv([1.0, 2.0])]))

    def test_validation(self):
        with pytest.raises(ValueError, match="block_momentum"):
            fresh_state([0.0], 1.0, 1.0)
        with pytest.raises(ValueError, match="block_learning_rate"):
            fresh_state([0.0], 0.5, 0.0)

    @given(
        n=st.sampled_from([1, 2, 8]),
        length=st.integers(min_value=1, max_value=40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_degenerate_equivalence_property(self, n, length, seed):
        rng = np.random.default_rng(seed)
        locals_ = [pv(rng.normal(size=length)) for _ in range(n)]
        state = SyncState(
            pv(rng.normal(size=length)), pv(rng.normal(size=length)), 0.0, 1.0, 3
        )
        after = bmuf_apply(state, mean_reduce(locals_))
        avg = mean_reduce(locals_)
        assert after.global_model.values.tobytes() == avg.values.tobytes()

    @given(
        length=st.integers(min_value=1, max_value=64),
        seed=st.integers(0, 2**32 - 1),
        eta=st.floats(min_value=0.01, max_value=0.99),
        zeta=st.floats(min_value=0.1, max_value=2.0).filter(lambda z: z != 1.0),
        scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e150]),
    )
    @settings(max_examples=80, deadline=None)
    def test_filtered_update_bitwise_equals_expression(self, length, seed, eta, zeta, scale):
        """The filtered update keeps the bits of the plain expressions on the
        zeta != 1, eta > 0 path that no artifact digest exercises."""
        rng = np.random.default_rng(seed)
        prev, d, tb = (scale * rng.normal(size=length) for _ in range(3))
        state = SyncState(pv(prev), pv(d), eta, zeta, 5)
        after = bmuf_apply(state, pv(tb))
        g = tb - prev
        want_delta = eta * d + zeta * g
        want_global = (1.0 - zeta) * prev + zeta * tb + eta * d
        assert np.array_equal(after.delta.values, want_delta)
        assert np.array_equal(after.global_model.values, want_global)
        assert not after.global_model.values.flags.writeable
        assert not after.delta.values.flags.writeable
        assert after.block_index == 6

    @given(
        length=st.integers(min_value=1, max_value=64),
        seed=st.integers(0, 2**32 - 1),
        eta=st.floats(min_value=0.0, max_value=0.99),
        zeta=st.one_of(st.just(1.0), st.floats(min_value=0.1, max_value=2.0)),
    )
    @settings(max_examples=80, deadline=None)
    def test_in_place_update_bitwise_equals_allocating(self, length, seed, eta, zeta):
        """With ``out`` the state's own arrays, the update overwrites them
        with the bits the allocating call returns."""
        rng = np.random.default_rng(seed)
        prev, d, tb = (rng.normal(size=length) for _ in range(3))
        want = bmuf_apply(SyncState(pv(prev), pv(d), eta, zeta, 5), pv(tb))
        own = np.stack([prev, d])
        state = SyncState(view(own[0]), view(own[1]), eta, zeta, 5)
        got = bmuf_apply(state, pv(tb), out=own, work=np.full((2, length), np.nan))
        assert np.shares_memory(got.global_model.values, own[0])
        assert np.shares_memory(got.delta.values, own[1])
        assert got.global_model.values.tobytes() == want.global_model.values.tobytes()
        assert got.delta.values.tobytes() == want.delta.values.tobytes()
        assert got.block_index == 6

    def test_geometric_decay_with_echoed_broadcast(self):
        """With zeta=1 a displaced first block sets the accumulator; workers
        that then echo the broadcast back add nothing, so the filtered update
        must decay geometrically and the raw model update must vanish.
        """
        rng = make_rng(4)
        for eta in (0.5, 0.9, 0.99):
            theta0 = rng.normal(size=5)
            state = fresh_state(theta0, eta, 1.0)
            state = bmuf_apply(state, mean_reduce([pv(theta0 + rng.normal(size=5))]))
            delta1 = state.delta.values.copy()
            for t in range(2, 51):
                prev_model = state.global_model
                state = bmuf_apply(state, mean_reduce([prev_model]))
                g_t = state.delta.values - eta ** (t - 1) * delta1
                np.testing.assert_allclose(g_t, 0.0, atol=1e-12)


class TestModelAverage:
    def test_identical_models(self):
        v = pv([1.0, -2.0, 3.5])
        out = mean_reduce([v, v, v])
        assert np.array_equal(out.values, v.values)

    def test_two_workers(self):
        assert np.array_equal(mean_reduce([pv([0.0]), pv([4.0])]).values, [2.0])


class TestShadow:
    def test_first_update_sets_ma_exactly(self):
        theta0 = pv([10.0, -3.0])
        shadow = ShadowState.initial(theta0, ema_rate=0.9)
        theta1 = pv([1.0, 2.0])
        after = shadow_update(shadow, theta1)
        assert after.ma_model.values.tobytes() == theta1.values.tobytes()
        np.testing.assert_allclose(
            after.ema_model.values, 0.9 * theta0.values + 0.1 * theta1.values, rtol=1e-15
        )
        assert after.sync_count == 1

    def test_alpha_zero_tracks_global_exactly(self):
        shadow = ShadowState.initial(pv([5.0]), ema_rate=0.0)
        theta = pv([np.pi])
        assert shadow_update(shadow, theta).ema_model.values.tobytes() == theta.values.tobytes()

    def test_two_step_hand_recursion(self):
        shadow = ShadowState.initial(pv([1.0]), ema_rate=0.5)
        shadow = shadow_update(shadow, pv([1.0]))
        assert np.array_equal(shadow.ma_model.values, [1.0])
        assert np.array_equal(shadow.ema_model.values, [1.0])
        shadow = shadow_update(shadow, pv([3.0]))
        assert np.array_equal(shadow.ma_model.values, [2.0])
        assert np.array_equal(shadow.ema_model.values, [2.0])

    def test_alpha_one_is_frozen_forever(self):
        theta0 = pv([2.0, -7.0])
        shadow = ShadowState.initial(theta0, ema_rate=1.0)
        rng = make_rng(9)
        for _ in range(20):
            shadow = shadow_update(shadow, pv(rng.normal(size=2)))
        assert shadow.ema_model.values.tobytes() == theta0.values.tobytes()

    def test_ma_matches_stored_history(self):
        rng = make_rng(12)
        shadow = ShadowState.initial(pv(rng.normal(size=8)), ema_rate=0.9)
        history = []
        for _ in range(300):
            theta = pv(rng.normal(size=8))
            history.append(theta.values)
            shadow = shadow_update(shadow, theta)
        np.testing.assert_allclose(
            shadow.ma_model.values, np.mean(history, axis=0), rtol=0, atol=1e-12
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        alpha=st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]),
        steps=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_ema_confined_to_observed_interval(self, seed, alpha, steps):
        rng = np.random.default_rng(seed)
        start = rng.normal(size=5)
        shadow = ShadowState.initial(pv(start), ema_rate=alpha)
        lo = start.copy()
        hi = start.copy()
        for _ in range(steps):
            theta = rng.normal(size=5)
            lo = np.minimum(lo, theta)
            hi = np.maximum(hi, theta)
            shadow = shadow_update(shadow, pv(theta))
            # a hair of slack: two roundings per component and update
            pad = 4 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
            assert np.all(shadow.ema_model.values >= lo - pad)
            assert np.all(shadow.ema_model.values <= hi + pad)

    @given(
        length=st.integers(min_value=1, max_value=64),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(min_value=0.01, max_value=0.999),
        count=st.integers(min_value=1, max_value=10_000),
        scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e150]),
    )
    @settings(max_examples=80, deadline=None)
    def test_update_bitwise_equals_expression(self, length, seed, alpha, count, scale):
        """Both shadows keep the bits of the plain expressions at t > 1 and
        0 < alpha < 1."""
        rng = np.random.default_rng(seed)
        ma, ema, theta = (scale * rng.normal(size=length) for _ in range(3))
        shadow = ShadowState(pv(ma), pv(ema), alpha, count)
        after = shadow_update(shadow, pv(theta))
        t = count + 1
        assert np.array_equal(after.ma_model.values, ma + (theta - ma) / t)
        assert np.array_equal(after.ema_model.values, alpha * ema + (1.0 - alpha) * theta)
        assert not after.ma_model.values.flags.writeable
        assert not after.ema_model.values.flags.writeable
        assert after.sync_count == t

    @given(
        length=st.integers(min_value=1, max_value=64),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        count=st.sampled_from([0, 1, 7, 10_000]),
    )
    @settings(max_examples=80, deadline=None)
    def test_in_place_update_bitwise_equals_allocating(self, length, seed, alpha, count):
        """With ``out`` the state's own arrays, the first update (t == 1)
        and later ones overwrite them with the bits the allocating call
        returns."""
        rng = np.random.default_rng(seed)
        ma, ema, theta = (rng.normal(size=length) for _ in range(3))
        want = shadow_update(ShadowState(pv(ma), pv(ema), alpha, count), pv(theta))
        own = np.stack([ma, ema])
        shadow = ShadowState(view(own[0]), view(own[1]), alpha, count)
        got = shadow_update(shadow, pv(theta), out=own, work=np.full((2, length), np.nan))
        assert np.shares_memory(got.ma_model.values, own[0])
        assert np.shares_memory(got.ema_model.values, own[1])
        assert got.ma_model.values.tobytes() == want.ma_model.values.tobytes()
        assert got.ema_model.values.tobytes() == want.ema_model.values.tobytes()
        assert got.sync_count == count + 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            shadow_update(ShadowState.initial(pv([0.0]), 0.5), pv([1.0, 2.0]))

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="ema_rate"):
            ShadowState.initial(pv([0.0]), ema_rate=1.5)


class TestFinalModels:
    def test_collapse_after_single_degenerate_sync(self):
        rng = make_rng(2)
        theta0 = pv(rng.normal(size=4))
        sync = SyncState.initial(theta0, 0.0, 1.0)
        shadow = ShadowState.initial(theta0, ema_rate=0.0)
        locals_ = [pv(rng.normal(size=4)) for _ in range(3)]
        sync = bmuf_apply(sync, mean_reduce(locals_))
        shadow = shadow_update(shadow, sync.global_model)
        finals = final_models(shadow, sync)
        assert finals["bmuf"].values.tobytes() == finals["ma"].values.tobytes()
        assert finals["bmuf"].values.tobytes() == finals["ema"].values.tobytes()

    def test_error_before_any_sync(self):
        theta0 = pv([1.0])
        with pytest.raises(RuntimeError, match="no synchronization"):
            final_models(ShadowState.initial(theta0, 0.5), SyncState.initial(theta0, 0.5, 1.0))


class TestCheckpointIo:
    def test_round_trip(self, tmp_path):
        cp = Checkpoint("ema", 12, 3.25, pv(make_rng(3).normal(size=31)))
        path = tmp_path / "cp.npz"
        save_checkpoint(path, cp)
        loaded = load_checkpoint(path)
        assert loaded.strategy == cp.strategy
        assert loaded.block_index == cp.block_index
        assert loaded.epoch == cp.epoch
        assert loaded.params.values.tobytes() == cp.params.values.tobytes()

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            Checkpoint("avg", 1, 1.0, pv([0.0]))

    def test_rejects_bad_version(self, tmp_path):
        path = tmp_path / "cp.npz"
        np.savez(path, format_version=99, strategy="ma", block_index=1, epoch=1.0, values=np.zeros(2))
        with pytest.raises(ValueError, match="format version"):
            load_checkpoint(path)
