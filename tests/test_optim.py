import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blocktrain.cluster import ClusterConfig
from blocktrain.optim import sgd_step

from .oracles import sgd_reference

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
# signed zeros and subnormals, drawn often enough to meet each other
edge_finite = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -2.5e-310, 2.2e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def arr(*values):
    return np.array(values, dtype=float)


class TestValidation:
    # the step's hyperparameters are validated once, where the cluster
    # configuration is built, not on every in-place step
    def test_learning_rate_positive(self):
        with pytest.raises(ValueError, match="learning_rate"):
            ClusterConfig(0.0)
        with pytest.raises(ValueError, match="learning_rate"):
            ClusterConfig(float("inf"))

    def test_momentum_range(self):
        with pytest.raises(ValueError, match="momentum"):
            ClusterConfig(0.1, momentum=1.0)
        with pytest.raises(ValueError, match="momentum"):
            ClusterConfig(0.1, momentum=-0.1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            sgd_step(arr(1.0, 2.0), arr(1.0), np.zeros(2), 0.1, 0.0)
        # a start model of the wrong shape would otherwise broadcast
        with pytest.raises(ValueError, match="shape mismatch"):
            sgd_step(arr(1.0, 2.0), arr(1.0, 2.0), np.zeros(2), 0.1, 0.0, start=arr(1.0))


class TestStep:
    def test_plain_sgd(self):
        params, velocity = arr(1.0), np.zeros(1)
        sgd_step(params, arr(10.0), velocity, 0.1, 0.0)
        assert np.array_equal(params, [0.0])
        assert np.array_equal(velocity, [-1.0])

    def test_zero_grad_zero_velocity_is_fixed_point(self):
        params, velocity = arr(3.0, -2.0), np.zeros(2)
        sgd_step(params, np.zeros(2), velocity, 0.5, 0.9)
        assert np.array_equal(params, [3.0, -2.0])
        assert np.array_equal(velocity, np.zeros(2))

    def test_pure_momentum_decay(self):
        params, velocity = arr(0.0), arr(1.0)
        sgd_step(params, arr(0.0), velocity, 1.0, 0.9)
        assert np.array_equal(velocity, [0.9])
        assert np.array_equal(params, [0.9])

    @given(
        seed=st.integers(0, 2**32 - 1),
        lr=st.floats(min_value=1e-3, max_value=2.0),
        momentum=st.floats(min_value=0.0, max_value=0.99),
        length=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_in_place_step_equals_out_of_place_bitwise(self, seed, lr, momentum, length):
        # the in-place sequence must reproduce p + (m*v - lr*g) bit for bit
        rng = np.random.default_rng(seed)
        p, v, g = (rng.normal(size=length) * rng.uniform(0.1, 10.0) for _ in range(3))
        want_v = momentum * v - lr * g
        want_p = p + want_v
        params, grad, velocity = p.copy(), g.copy(), v.copy()
        sgd_step(params, grad, velocity, lr, momentum)
        assert params.tobytes() == want_p.tobytes()
        assert velocity.tobytes() == want_v.tobytes()

    @given(
        data=st.integers(min_value=1, max_value=12).flatmap(
            lambda length: arrays(np.float64, (4, length), elements=edge_finite)
        ),
        lr=st.floats(min_value=1e-3, max_value=2.0),
        momentum=st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_start_equals_copy_then_step_bitwise(self, data, lr, momentum):
        # stepping from ``start`` writes the bits of copying it into params
        # and stepping in place, and never writes ``start``
        p, s, v, g = data
        params, grad, velocity = p.copy(), g.copy(), v.copy()
        params[...] = s
        with np.errstate(all="ignore"):
            sgd_step(params, grad, velocity, lr, momentum)
        got_params, got_grad, got_velocity, start = p.copy(), g.copy(), v.copy(), s.copy()
        start.flags.writeable = False
        with np.errstate(all="ignore"):
            sgd_step(got_params, got_grad, got_velocity, lr, momentum, start=start)
        assert got_params.tobytes() == params.tobytes()
        assert got_velocity.tobytes() == velocity.tobytes()
        assert got_grad.tobytes() == grad.tobytes()
        assert start.tobytes() == s.tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        lr=st.floats(min_value=1e-3, max_value=2.0),
        momentum=st.floats(min_value=0.0, max_value=0.99),
        steps=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_recursion_matches_scalar_reference(self, seed, lr, momentum, steps):
        rng = np.random.default_rng(seed)
        params0 = rng.normal(size=4)
        grads = [rng.normal(size=4) for _ in range(steps)]
        velocity = np.zeros(4)
        current = params0.copy()
        for g in grads:
            sgd_step(current, g.copy(), velocity, lr, momentum)
        want = sgd_reference(lr, momentum, params0, grads)
        np.testing.assert_allclose(current, want, rtol=1e-12, atol=1e-13)

    @given(x=arrays(np.float64, (3,), elements=finite), c=st.sampled_from([0.5, 2.0, 4.0, 1024.0]))
    def test_scaling_invariance_without_momentum(self, x, c):
        # scaling grad by c and lr by 1/c is a no-op; exact for powers of two
        a, b = np.zeros(3), np.zeros(3)
        sgd_step(a, x.copy(), np.zeros(3), 0.25, 0.0)
        sgd_step(b, c * x, np.zeros(3), 0.25 / c, 0.0)
        assert np.array_equal(a, b)
