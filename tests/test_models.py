import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrain.models import (
    Batch,
    LstmSpec,
    MlpSpec,
    _forward,
    _layout,
    _sigmoid,
    _softmax_ce,
    _views,
    backward,
    forward_loss,
    init_params,
    param_count,
    predict_frames,
)
from blocktrain.numerics import ParamVector, substream

from .oracles import (
    finite_difference_gradient,
    lstm_loss_reference,
    max_rel_err,
    mlp_loss_reference,
)


def random_batch(rng, frames, dim, classes, seq_lengths=()):
    return Batch(
        rng.normal(size=(frames, dim)),
        rng.integers(classes, size=frames),
        seq_lengths,
    )


def unlabelled(inputs, seq_lengths=()):
    """``inputs`` as a Batch for prediction, which reads no targets."""
    return Batch(inputs, np.zeros(len(inputs), dtype=int), seq_lengths)


def sigmoid_reference(z):
    """The allocating tanh form every in-place sigmoid must match bit for bit."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def mlp_logits_reference(spec, values, inputs):
    """Straight-line allocating MLP forward: ``a @ w + b``, then the sigmoid."""
    sizes = spec.layer_sizes
    off = 0
    a = inputs
    for idx, (d_in, d_out) in enumerate(zip(sizes, sizes[1:])):
        w = values[off : off + d_in * d_out].reshape(d_in, d_out)
        off += d_in * d_out
        b = values[off : off + d_out]
        off += d_out
        z = a @ w + b
        a = z if idx == len(sizes) - 2 else sigmoid_reference(z)
    return a


# extremes the sigmoid must keep bit for bit: saturation, signed zero, subnormals
SIGMOID_EDGES = np.array(
    [1e3, -1e3, 40.0, -40.0, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0]
)


def sigmoid_inputs(rng, n):
    z = rng.normal(scale=8.0, size=n)
    z[: SIGMOID_EDGES.size] = SIGMOID_EDGES
    return z


class TestSpecs:
    def test_mlp_param_count(self):
        assert param_count(MlpSpec((4, 3, 2))) == 23

    def test_lstm_param_count(self):
        assert param_count(LstmSpec(4, 3, 1, 2)) == 104

    def test_mlp_needs_two_layers(self):
        with pytest.raises(ValueError):
            MlpSpec((5,))

    def test_lstm_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            LstmSpec(0, 3, 1, 2)
        with pytest.raises(ValueError):
            LstmSpec(3, 3, 0, 2)

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="one entry per frame"):
            Batch(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="non-finite"):
            Batch(np.full((2, 2), np.nan), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="sum to the frame count"):
            Batch(np.zeros((3, 2)), np.zeros(3, dtype=int), (2, 2))

    def test_batch_rejects_non_integer_targets(self):
        with pytest.raises(ValueError, match="targets must be integer"):
            Batch(np.zeros((2, 3)), np.array([0.5, 1.7]))

    # sizes are never truncated: a float or a bool is rejected by name, a
    # numpy integer is stored as a Python int
    @pytest.mark.parametrize("sizes", [(3.7, 2), (True, 2), (3, 2.0)])
    def test_mlp_rejects_non_integer_sizes(self, sizes):
        with pytest.raises(ValueError, match="layer_sizes: .* is not an integer"):
            MlpSpec(sizes)

    @pytest.mark.parametrize(
        "dims, name",
        [
            ((3.5, 2, 1, 2), "input_dim"),
            ((3, 2.0, 1, 2), "hidden_dim"),
            ((3, 2, True, 2), "num_layers"),
            ((3, 2, 1, 2.5), "output_dim"),
        ],
    )
    def test_lstm_rejects_non_integer_dims(self, dims, name):
        with pytest.raises(ValueError, match=f"{name}: .* is not an integer"):
            LstmSpec(*dims)

    @pytest.mark.parametrize("lengths", [(2.5, 2.5), (True, True), (2, 3.0)])
    def test_batch_rejects_non_integer_lengths(self, lengths):
        frames = sum(map(int, lengths))
        with pytest.raises(ValueError, match="seq_lengths: .* is not an integer"):
            Batch(np.zeros((frames, 2)), np.zeros(frames, dtype=int), lengths)

    def test_numpy_integer_sizes_stored_as_int(self):
        mlp = MlpSpec((np.int64(4), np.int32(3), 2))
        lstm = LstmSpec(np.int64(4), np.int16(3), np.uint8(1), np.int32(2))
        batch = Batch(np.zeros((5, 2)), np.zeros(5, dtype=int), np.array([2, 3]))
        for sizes in (mlp.layer_sizes, batch.seq_lengths):
            assert all(type(v) is int for v in sizes)
        assert all(type(v) is int for v in vars(lstm).values())
        assert (mlp, lstm, batch.seq_lengths) == (
            MlpSpec((4, 3, 2)),
            LstmSpec(4, 3, 1, 2),
            (2, 3),
        )
        assert param_count(lstm) == 104


MLP_SPECS = st.lists(st.integers(1, 40), min_size=2, max_size=5).map(
    lambda sizes: MlpSpec(tuple(sizes))
)
SPECS = st.one_of(
    MLP_SPECS,
    st.builds(
        LstmSpec, st.integers(1, 40), st.integers(1, 36), st.integers(1, 3), st.integers(1, 9)
    ),
)

# sha256 of ``init_params(spec, substream(0))`` bytes, recorded at commit 68284af
# (numpy 2.4.6), before the packing was read from one layout table
INIT_DIGESTS = [
    (MlpSpec((36, 32, 8)), "e3d89e04265a8bdc2bba1d020fff51ae8ebed9509ec889545cd9772c29136357"),
    (MlpSpec((36, 256, 256, 8)), "d12406427086b813c56974723ffa78601c720fef9bbeda64e288bb9798fb471f"),
    (LstmSpec(36, 16, 2, 8), "0ac526f3a66fa281d9a38cccf7fee4092c9e39beec5c769bab26c77e342599a4"),
    (LstmSpec(5, 3, 3, 4), "4c4df5c4613441a3848737ed7d88d7316a115533fc68825ecbd0d4e066c31b94"),
]


class TestLayout:
    @given(spec=SPECS, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_views_pack_every_element_once_in_order(self, spec, seed):
        n = param_count(spec)
        arr = np.arange(n)
        views = _views(spec, arr)
        assert [w.shape for w, _ in views] == list(_layout(spec))
        assert all(np.shares_memory(a, arr) for view in views for a in view)
        flat = np.concatenate([a.ravel() for view in views for a in view])
        assert np.array_equal(flat, arr)
        values = init_params(spec, substream(seed)).values
        assert len(values) == n
        # biases are zero except the LSTM forget slices, which are one
        for idx, (_, b) in enumerate(_views(spec, values)):
            expected = np.zeros_like(b)
            if isinstance(spec, LstmSpec) and idx < spec.num_layers:
                expected[spec.hidden_dim : 2 * spec.hidden_dim] = 1.0
            assert np.array_equal(b, expected)

    @pytest.mark.parametrize("spec, digest", INIT_DIGESTS)
    def test_init_params_bytes_pinned(self, spec, digest):
        values = init_params(spec, substream(0)).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest


class TestInit:
    def test_deterministic(self):
        spec = LstmSpec(5, 4, 2, 3)
        a = init_params(spec, substream(11))
        b = init_params(spec, substream(11))
        assert a.values.tobytes() == b.values.tobytes()

    def test_mlp_biases_zero_weights_bounded(self):
        spec = MlpSpec((6, 5, 4))
        values = init_params(spec, substream(0)).values
        w1 = values[:30]
        b1 = values[30:35]
        assert np.array_equal(b1, np.zeros(5))
        assert np.all(np.abs(w1) <= 1.0 / np.sqrt(6))

    def test_lstm_forget_bias_one(self):
        h = 3
        spec = LstmSpec(4, h, 1, 2)
        values = init_params(spec, substream(0)).values
        b = values[(4 + h) * 4 * h : (4 + h) * 4 * h + 4 * h]
        assert np.array_equal(b[h : 2 * h], np.ones(h))
        assert np.array_equal(b[:h], np.zeros(h))
        assert np.array_equal(b[2 * h :], np.zeros(2 * h))


class TestForwardLoss:
    def test_zero_params_gives_log_k(self):
        rng = substream(3)
        for spec in (MlpSpec((4, 3, 5)), LstmSpec(4, 3, 2, 5)):
            batch = random_batch(rng, 12, 4, 5, (6, 6))
            zero = ParamVector.zeros(param_count(spec))
            assert forward_loss(spec, zero, batch) == pytest.approx(np.log(5), abs=1e-12)

    def test_perfect_logits_give_near_zero_loss(self):
        spec = MlpSpec((4, 3))
        values = np.zeros(param_count(spec))
        values[12] = 50.0  # bias of class 0 after the 4x3 weight block
        batch = Batch(substream(1).normal(size=(8, 4)), np.zeros(8, dtype=int))
        assert forward_loss(spec, ParamVector(values), batch) <= 1e-6

    def test_mlp_matches_straight_line_reference(self):
        rng = substream(42)
        spec = MlpSpec((5, 7, 4, 3))
        params = init_params(spec, rng)
        batch = random_batch(rng, 11, 5, 3)
        got = forward_loss(spec, params, batch)
        want = mlp_loss_reference(spec, params.values, batch)
        assert got == pytest.approx(want, rel=1e-12)

    def test_lstm_matches_straight_line_reference(self):
        rng = substream(43)
        spec = LstmSpec(4, 5, 2, 3)
        params = init_params(spec, rng)
        batch = random_batch(rng, 9, 4, 3, (4, 5))
        got = forward_loss(spec, params, batch)
        want = lstm_loss_reference(spec, params.values, batch)
        assert got == pytest.approx(want, rel=1e-12)

    def test_length_mismatch_raises(self):
        spec = MlpSpec((4, 3))
        batch = random_batch(substream(0), 5, 4, 3)
        with pytest.raises(ValueError, match="length"):
            forward_loss(spec, ParamVector.zeros(7), batch)

    def test_target_out_of_range_raises(self):
        spec = MlpSpec((4, 3))
        batch = Batch(np.zeros((2, 4)), np.array([0, 3]))
        with pytest.raises(ValueError, match="out of range"):
            forward_loss(spec, ParamVector.zeros(param_count(spec)), batch)

    def test_sequence_permutation_invariance(self):
        rng = substream(7)
        spec = LstmSpec(3, 4, 1, 2)
        params = init_params(spec, rng)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(6, 3))
        ta = rng.integers(2, size=4)
        tb = rng.integers(2, size=6)
        loss_ab = forward_loss(
            spec, params, Batch(np.concatenate([a, b]), np.concatenate([ta, tb]), (4, 6))
        )
        loss_ba = forward_loss(
            spec, params, Batch(np.concatenate([b, a]), np.concatenate([tb, ta]), (6, 4))
        )
        assert loss_ab == pytest.approx(loss_ba, rel=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = substream(5)
        logits = rng.normal(scale=8.0, size=(200, 6))
        probs, _ = _softmax_ce(logits, rng.integers(6, size=200))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestBackward:
    @pytest.mark.parametrize(
        "spec,lengths",
        [
            (MlpSpec((5, 4, 3)), ()),
            (LstmSpec(4, 3, 1, 2), (5, 5)),
            (LstmSpec(3, 3, 2, 2), (4, 3, 3)),
        ],
    )
    def test_matches_finite_differences(self, spec, lengths):
        rng = substream(17)
        dim = spec.layer_sizes[0] if isinstance(spec, MlpSpec) else spec.input_dim
        classes = spec.layer_sizes[-1] if isinstance(spec, MlpSpec) else spec.output_dim
        frames = sum(lengths) or 10
        params = init_params(spec, rng)
        batch = random_batch(rng, frames, dim, classes, lengths)
        _, grad = backward(spec, params, batch)
        numeric = finite_difference_gradient(spec, params, batch)
        assert max_rel_err(grad, numeric) <= 1e-5

    def test_loss_equals_forward_loss_bitwise(self):
        rng = substream(23)
        for spec, lengths in ((MlpSpec((4, 6, 3)), ()), (LstmSpec(4, 5, 2, 3), (3, 5))):
            dim = 4
            frames = sum(lengths) or 8
            params = init_params(spec, rng)
            batch = random_batch(rng, frames, dim, 3, lengths)
            loss, _ = backward(spec, params, batch)
            assert loss == forward_loss(spec, params, batch)

    def test_duplicated_batch_same_gradient(self):
        rng = substream(29)
        spec = MlpSpec((4, 5, 3))
        params = init_params(spec, rng)
        x = rng.normal(size=(6, 4))
        y = rng.integers(3, size=6)
        _, g1 = backward(spec, params, Batch(x, y))
        _, g2 = backward(spec, params, Batch(np.concatenate([x, x]), np.concatenate([y, y])))
        np.testing.assert_allclose(g2, g1, rtol=1e-10, atol=1e-13)

    def test_duplicated_sequences_same_gradient(self):
        rng = substream(31)
        spec = LstmSpec(3, 4, 1, 2)
        params = init_params(spec, rng)
        x = rng.normal(size=(5, 3))
        y = rng.integers(2, size=5)
        _, g1 = backward(spec, params, Batch(x, y, (5,)))
        _, g2 = backward(
            spec, params, Batch(np.concatenate([x, x]), np.concatenate([y, y]), (5, 5))
        )
        np.testing.assert_allclose(g2, g1, rtol=1e-10, atol=1e-13)

    @given(
        kind=st.sampled_from(["mlp", "lstm"]),
        seed=st.integers(0, 2**31 - 1),
        zero_rows=st.integers(0, 4),
        scale=st.sampled_from([1.0, 60.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_out_gradient_bitwise_equals_fresh(self, kind, seed, zero_rows, scale):
        """``backward(..., out=)`` writes every element of ``out``, pre-filled
        with NaN, with the bits of the allocating call. Zero input rows and
        weights that saturate the sigmoids make products of zero, where a
        BLAS kernel may return -0.0; the gradient never holds -0.0, just as
        when it was summed into zeros."""
        rng = substream(seed)
        if kind == "mlp":
            spec, lengths = MlpSpec((4, 6, 5, 3)), ()
        else:  # mixed lengths: three length groups
            spec, lengths = LstmSpec(4, 3, 2, 3), (3, 1, 3, 2)
        params = ParamVector(scale * init_params(spec, rng).values)
        frames = sum(lengths) or 7
        inputs = rng.normal(size=(frames, 4))
        inputs[:zero_rows] = 0.0
        batch = Batch(inputs, rng.integers(3, size=frames), lengths)
        loss, fresh = backward(spec, params, batch)
        out = np.full(len(params), np.nan)
        out_loss, got = backward(spec, params, batch, out=out)
        assert got is out
        assert out_loss == loss
        assert out.tobytes() == fresh.tobytes()
        assert not np.signbit(out[out == 0.0]).any()

    def test_out_must_be_a_contiguous_gradient_vector(self):
        spec = MlpSpec((3, 2))
        params = init_params(spec, substream(2))
        batch = random_batch(substream(3), 4, 3, 2)
        for out in (np.zeros(len(params) + 1), np.zeros(2 * len(params))[::2]):
            with pytest.raises(ValueError, match="C-contiguous"):
                backward(spec, params, batch, out=out)

    @given(kind=st.sampled_from(["mlp", "lstm"]), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_gradient_check_random_small_models(self, kind, seed):
        rng = substream(seed)
        if kind == "mlp":
            sizes = tuple(int(s) for s in rng.integers(2, 7, size=int(rng.integers(2, 4))))
            spec = MlpSpec(sizes)
            dim, classes = sizes[0], sizes[-1]
            lengths = ()
        else:
            dim = int(rng.integers(2, 5))
            classes = int(rng.integers(2, 4))
            spec = LstmSpec(dim, int(rng.integers(2, 5)), int(rng.integers(1, 3)), classes)
            lengths = (3, 4)
        assert param_count(spec) <= 500
        params = init_params(spec, rng)
        batch = random_batch(rng, sum(lengths) or 8, dim, classes, lengths)
        _, grad = backward(spec, params, batch)
        numeric = finite_difference_gradient(spec, params, batch)
        assert max_rel_err(grad, numeric) <= 1e-5


class TestSigmoid:
    def test_fresh_array_bitwise_and_input_untouched(self):
        z = sigmoid_inputs(substream(3), 500)
        before = z.tobytes()
        got = _sigmoid(z)
        assert got is not z
        assert np.array_equal(got, sigmoid_reference(z))
        assert z.tobytes() == before

    def test_read_only_input(self):
        z = sigmoid_inputs(substream(4), 64)
        z.flags.writeable = False
        assert np.array_equal(_sigmoid(z), sigmoid_reference(z))

    def test_in_place_returns_same_array(self):
        z = sigmoid_inputs(substream(5), 500).reshape(50, 10)
        want = sigmoid_reference(z)
        got = _sigmoid(z, out=z)
        assert got is z
        assert np.array_equal(z, want)

    def test_gate_column_slice(self):
        # the recurrent cell takes one gate's columns of an (n, 4H) array
        n, h = 37, 16
        z = sigmoid_inputs(substream(6), n * 4 * h).reshape(n, 4 * h)
        before = z.tobytes()
        for g in range(4):
            cols = z[:, g * h : (g + 1) * h]
            assert np.array_equal(_sigmoid(cols), sigmoid_reference(cols))
        assert z.tobytes() == before


class TestEvaluationLogits:
    @pytest.mark.parametrize("sizes", [(36, 256, 256, 8), (36, 32, 8)])
    def test_mlp_logits_bitwise_equal_allocating_reference(self, sizes):
        # the FER digests round logits to a class; this pins their bits at the
        # test and validation set sizes
        rng = substream(47)
        spec = MlpSpec(sizes)
        params = init_params(spec, rng)
        for rows in (4000, 2000):
            self.check(spec, params, rng.normal(size=(rows, sizes[0])))

    @given(
        spec=MLP_SPECS,
        rows=st.integers(1, 300),
        scale=st.sampled_from([1.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_mlp_logits_bitwise_equal_allocating_reference_any_shape(
        self, spec, rows, scale, seed
    ):
        # weights scaled by 30 saturate the sigmoids
        rng = substream(seed)
        params = ParamVector(scale * init_params(spec, rng).values)
        self.check(spec, params, rng.normal(size=(rows, spec.input_dim)))

    @staticmethod
    def check(spec, params, inputs):
        batch = unlabelled(inputs)
        want = mlp_logits_reference(spec, params.values, inputs)
        logits, _ = _forward(spec, params, batch)
        assert logits.tobytes() == want.tobytes()
        assert np.array_equal(predict_frames(spec, params, batch), np.argmax(want, axis=1))


class TestCallerMemory:
    @pytest.mark.parametrize(
        "spec,lengths",
        [(MlpSpec((6, 9, 7, 4)), ()), (LstmSpec(6, 5, 2, 4), (4, 3, 4))],
    )
    def test_backward_and_predict_leave_caller_arrays_unchanged(self, spec, lengths):
        rng = substream(53)
        # a worker's writable parameter row, as the cluster hands it out
        rows = np.stack([init_params(spec, rng).values for _ in range(3)])
        inputs = rng.normal(size=(sum(lengths) or 11, 6))
        targets = rng.integers(4, size=inputs.shape[0])
        rows_before, inputs_before = rows.tobytes(), inputs.tobytes()
        backward(spec, rows[1], Batch(inputs, targets, lengths))
        predict_frames(spec, rows[1], Batch(inputs, targets, lengths))
        assert rows.flags.writeable and inputs.flags.writeable
        assert rows.tobytes() == rows_before
        assert inputs.tobytes() == inputs_before


class TestPredict:
    def test_logit_examples_and_ties(self):
        # bias-only net: logits equal the bias vector for every frame
        spec = MlpSpec((1, 2))
        inputs = unlabelled(np.zeros((3, 1)))
        biased = np.array([0.0, 0.0, 0.1, 0.9])
        assert np.array_equal(
            predict_frames(spec, ParamVector(biased), inputs), [1, 1, 1]
        )
        tied = np.array([0.0, 0.0, 0.5, 0.5])
        assert np.array_equal(predict_frames(spec, ParamVector(tied), inputs), [0, 0, 0])

    def test_zero_params_predict_class_zero(self):
        rng = substream(2)
        for spec in (MlpSpec((4, 3, 5)), LstmSpec(4, 3, 1, 5)):
            zero = ParamVector.zeros(param_count(spec))
            preds = predict_frames(spec, zero, unlabelled(rng.normal(size=(7, 4)), (3, 4)))
            assert np.array_equal(preds, np.zeros(7, dtype=int))

    @pytest.mark.parametrize(
        "spec,lengths",
        [(MlpSpec((36, 32, 8)), ()), (LstmSpec(6, 5, 2, 4), (40, 30, 40))],
    )
    def test_reuse_across_checkpoints_keeps_each_result(self, spec, lengths):
        # checkpoints A, B, A in turn, as evaluation predicts them
        rng = substream(59)
        a, b = init_params(spec, rng), init_params(spec, rng)
        inputs = unlabelled(rng.normal(size=(sum(lengths) or 500, spec.input_dim)), lengths)
        first = predict_frames(spec, a, inputs)
        kept = first.copy()
        other = predict_frames(spec, b, inputs)
        again = predict_frames(spec, a, inputs)
        assert not np.array_equal(first, other)
        assert np.array_equal(first, kept)
        assert np.array_equal(again, kept)
        assert not np.shares_memory(first, other) and not np.shares_memory(first, again)

    def test_dimension_mismatch(self):
        spec = MlpSpec((4, 3))
        with pytest.raises(ValueError, match="inputs must be"):
            predict_frames(
                spec, ParamVector.zeros(param_count(spec)), unlabelled(np.zeros((2, 5)))
            )

    def test_lstm_grouped_eval_matches_per_sequence(self):
        rng = substream(13)
        spec = LstmSpec(3, 4, 2, 3)
        params = init_params(spec, rng)
        seqs = [rng.normal(size=(5, 3)) for _ in range(6)]
        grouped = predict_frames(
            spec, params, unlabelled(np.concatenate(seqs), tuple(len(s) for s in seqs))
        )
        singly = np.concatenate(
            [predict_frames(spec, params, unlabelled(s, (len(s),))) for s in seqs]
        )
        assert np.array_equal(grouped, singly)


class TestLstmReducesToMlp:
    def test_gated_construction_matches_mlp(self):
        """Freeze the input and candidate gates fully open so a one-step
        recurrent cell computes sigmoid(W1 x + b1) * tanh(1); dividing the
        output projection by tanh(1) then reproduces the dense net exactly.
        """
        rng = substream(37)
        d, h, k = 4, 5, 3
        mlp = MlpSpec((d, h, k))
        mlp_params = init_params(mlp, rng)
        w1 = mlp_params.values[: d * h].reshape(d, h)
        b1 = mlp_params.values[d * h : d * h + h]
        w2 = mlp_params.values[d * h + h : d * h + h + h * k].reshape(h, k)
        b2 = mlp_params.values[d * h + h + h * k :]

        lstm = LstmSpec(d, h, 1, k)
        values = np.zeros(param_count(lstm))
        w = values[: (d + h) * 4 * h].reshape(d + h, 4 * h)
        b = values[(d + h) * 4 * h : (d + h) * 4 * h + 4 * h]
        off = (d + h) * 4 * h + 4 * h
        w_out = values[off : off + h * k].reshape(h, k)
        b_out = values[off + h * k :]
        b[:h] = 40.0  # input gate saturates to exactly 1.0
        b[2 * h : 3 * h] = 40.0  # candidate saturates to exactly 1.0
        w[:d, 3 * h :] = w1  # output gate carries the dense layer
        b[3 * h :] = b1
        scale = np.tanh(1.0)  # cell state is exactly 1, h = gate * tanh(1)
        w_out[...] = w2 / scale
        b_out[...] = b2

        frames = rng.normal(size=(10, d))
        targets = rng.integers(k, size=10)
        mlp_loss = forward_loss(mlp, mlp_params, Batch(frames, targets))
        lstm_loss = forward_loss(
            lstm, ParamVector(values), Batch(frames, targets, (1,) * 10)
        )
        assert lstm_loss == pytest.approx(mlp_loss, rel=1e-12)
