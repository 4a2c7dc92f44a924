"""Tiny dense and recurrent frame classifiers over flat parameter vectors.

A spec describes the architecture, a :class:`~blocktrain.numerics.ParamVector`
(or a training worker's own parameter array) holds every weight, and the
functions below unpack views into that vector on the fly. Each family has
one forward pass, which returns logits in the batch's frame order plus the
state its backprop needs (``_mlp_forward``, ``_lstm_forward``), and one
backprop, which writes the gradient for a given logit error into every
element of a flat gradient vector (``_mlp_backprop``, ``_lstm_backprop``).
``_forward`` is the one family dispatch behind the three public operations:
:func:`forward_loss` is the forward plus the softmax cross-entropy,
:func:`backward` adds the error signal and the backprop, and
:func:`predict_frames` takes the argmax of the logits. The recurrent model
runs exact backpropagation through time within each sequence, resets its
state at sequence boundaries, and runs equal-length sequences as one batch;
prediction keeps no BPTT caches. An MLP forward can write its layer
outputs into a caller's workspace (:func:`forward_workspace`), so that
evaluating many checkpoints on one set allocates its activations once, and
:func:`backward` can write the gradient into a caller's buffer, so that a
training worker allocates no parameter-sized array per step.

Parameter packing (row-major, in order):

* MLP: for each layer ``l``: ``W_l`` with shape ``(d_l, d_{l+1})``, then
  ``b_l`` with shape ``(d_{l+1},)``. Hidden activations are sigmoid, the last
  layer produces softmax logits.
* LSTM: for each recurrent layer: ``W`` with shape ``(D + H, 4H)`` applied to
  the concatenation ``[x_t, h_{t-1}]``, then ``b`` with shape ``(4H,)``. Gate
  order along the ``4H`` axis is input, forget, candidate, output. After all
  recurrent layers comes the output projection ``W_out (H, K)``, ``b_out (K,)``.

The loss everywhere is mean cross-entropy per frame, so gradient magnitudes
do not depend on how many frames a worker happens to hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence, Union

import numpy as np

from .numerics import ParamVector, frozen

__all__ = [
    "MlpSpec",
    "LstmSpec",
    "ModelSpec",
    "Batch",
    "param_count",
    "init_params",
    "forward_loss",
    "backward",
    "predict_frames",
    "forward_workspace",
]


@dataclass(frozen=True)
class MlpSpec:
    """Feed-forward net: sigmoid hidden layers, softmax output."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]


@dataclass(frozen=True)
class LstmSpec:
    """Unidirectional LSTM stack, one dense projection, softmax output.

    Vanilla cells: sigmoid gates, tanh candidate and cell output, no
    peepholes, no projection between recurrent layers.
    """

    input_dim: int
    hidden_dim: int
    num_layers: int = 2
    output_dim: int = 2

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.hidden_dim < 1 or self.output_dim < 1:
            raise ValueError("dimensions must be >= 1")
        if self.num_layers < 1:
            raise ValueError("need at least one recurrent layer")


ModelSpec = Union[MlpSpec, LstmSpec]


@dataclass(frozen=True)
class Batch:
    """Frames with per-frame class targets, segmented into sequences.

    ``inputs`` is ``(num_frames, dim)``, ``targets`` is ``(num_frames,)`` of
    class indices, and ``seq_lengths`` partitions the frame axis into
    contiguous sequences (recurrent state resets at each boundary). A feed
    forward model ignores the segmentation. When ``seq_lengths`` is omitted
    the whole batch is one sequence.
    """

    inputs: np.ndarray
    targets: np.ndarray
    seq_lengths: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.int64)
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be (frames, dim), got {inputs.shape}")
        if targets.shape != (inputs.shape[0],):
            raise ValueError("targets must have one entry per frame")
        if not np.isfinite(inputs).all():
            raise ValueError("inputs contain non-finite values")
        if targets.size and targets.min() < 0:
            raise ValueError("targets must be non-negative class indices")
        lengths = tuple(int(t) for t in self.seq_lengths) or (inputs.shape[0],)
        if any(t < 1 for t in lengths):
            raise ValueError("sequence lengths must be positive")
        if sum(lengths) != inputs.shape[0]:
            raise ValueError("sequence lengths must sum to the frame count")
        if inputs.flags.writeable:
            inputs = frozen(inputs.copy())
        if targets.flags.writeable:
            targets = frozen(targets.copy())
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "seq_lengths", lengths)

    @property
    def num_frames(self) -> int:
        return self.inputs.shape[0]


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``0.5 * (1.0 + tanh(0.5 * z))`` in one array: ``out`` (``z`` itself is
    fine) or, by default, a fresh one.

    The tanh form is overflow-free and exactly saturating for |z| >~ 40. The
    in-place steps keep the operations and their order, so the bits are those
    of the allocating expression.
    """
    s = np.multiply(z, 0.5, out=out)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def _softmax_ce(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame softmax probabilities and cross-entropy, max-shifted.

    The log-sum-exp path keeps the loss finite and non-negative even when
    probabilities underflow.
    """
    m = logits.max(axis=1, keepdims=True)
    shifted = logits - m
    exps = np.exp(shifted)
    sums = exps.sum(axis=1, keepdims=True)
    probs = exps / sums
    rows = np.arange(logits.shape[0])
    frame_ce = np.log(sums[:, 0]) - shifted[rows, targets]
    return probs, frame_ce


# ---------------------------------------------------------------------------
# parameter packing


def param_count(spec: ModelSpec) -> int:
    """Number of trainable parameters described by ``spec``."""
    if isinstance(spec, MlpSpec):
        sizes = spec.layer_sizes
        return sum(d_in * d_out + d_out for d_in, d_out in zip(sizes, sizes[1:]))
    n = 0
    d = spec.input_dim
    for _ in range(spec.num_layers):
        n += (d + spec.hidden_dim) * 4 * spec.hidden_dim + 4 * spec.hidden_dim
        d = spec.hidden_dim
    n += spec.hidden_dim * spec.output_dim + spec.output_dim
    return n


def _mlp_views(spec: MlpSpec, arr: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    views = []
    off = 0
    sizes = spec.layer_sizes
    for d_in, d_out in zip(sizes, sizes[1:]):
        w = arr[off : off + d_in * d_out].reshape(d_in, d_out)
        off += d_in * d_out
        b = arr[off : off + d_out]
        off += d_out
        views.append((w, b))
    return views


def _lstm_views(
    spec: LstmSpec, arr: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
    layers = []
    off = 0
    h = spec.hidden_dim
    d = spec.input_dim
    for _ in range(spec.num_layers):
        w = arr[off : off + (d + h) * 4 * h].reshape(d + h, 4 * h)
        off += (d + h) * 4 * h
        b = arr[off : off + 4 * h]
        off += 4 * h
        layers.append((w, b))
        d = h
    k = spec.output_dim
    w_out = arr[off : off + h * k].reshape(h, k)
    off += h * k
    b_out = arr[off : off + k]
    return layers, w_out, b_out


def _check_call(
    spec: ModelSpec, params: ParamVector | np.ndarray, batch: Batch
) -> None:
    """Argument checks shared by every public operation on a model."""
    expected = param_count(spec)
    if len(params) != expected:
        raise ValueError(
            f"parameter vector has length {len(params)}, spec needs {expected}"
        )
    if batch.inputs.shape[1] != spec.input_dim:
        raise ValueError(
            f"inputs must be (frames, {spec.input_dim}), got {batch.inputs.shape}"
        )
    if batch.targets.size and int(batch.targets.max()) >= spec.output_dim:
        raise ValueError("target class out of range for model output")


def init_params(spec: ModelSpec, rng: np.random.Generator) -> ParamVector:
    """Fan-in scaled uniform weights, zero biases, forget-gate bias +1.

    Draw order is fixed (layer by layer, weights only), so the result is a
    pure function of the stream state.
    """
    out = np.zeros(param_count(spec))
    if isinstance(spec, MlpSpec):
        for w, b in _mlp_views(spec, out):
            scale = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-scale, scale, size=w.shape)
            b[...] = 0.0
    else:
        layers, w_out, b_out = _lstm_views(spec, out)
        h = spec.hidden_dim
        for w, b in layers:
            scale = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-scale, scale, size=w.shape)
            b[...] = 0.0
            b[h : 2 * h] = 1.0
        w_out[...] = rng.uniform(-1.0 / np.sqrt(h), 1.0 / np.sqrt(h), size=w_out.shape)
        b_out[...] = 0.0
    return ParamVector(frozen(out))


# ---------------------------------------------------------------------------
# grouping equal-length sequences so the recurrence runs batched


def _length_groups(lengths: Sequence[int]) -> dict[int, list[tuple[int, int]]]:
    groups: dict[int, list[tuple[int, int]]] = {}
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        groups.setdefault(hi - lo, []).append((lo, hi))
    return groups


# ---------------------------------------------------------------------------
# MLP forward/backprop


def forward_workspace(spec: ModelSpec, rows: int) -> list[np.ndarray] | None:
    """Output arrays for every layer of an MLP forward over ``rows`` frames,
    to pass as ``workspace`` to :func:`predict_frames`; ``None`` for an LSTM,
    whose forward always allocates."""
    if not isinstance(spec, MlpSpec):
        return None
    return [np.empty((rows, d_out)) for d_out in spec.layer_sizes[1:]]


def _mlp_forward(
    spec: MlpSpec,
    values: np.ndarray,
    batch: Batch,
    out: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits plus every layer's input activations.

    Layer ``l`` writes its output into ``out[l]`` when given (see
    :func:`forward_workspace`), else into a fresh array; the matmul is the
    same BLAS call either way, so the bits are too.
    """
    layers = _mlp_views(spec, values)
    acts = [batch.inputs]
    for idx, (w, b) in enumerate(layers):
        z = np.matmul(acts[-1], w, out=None if out is None else out[idx])
        z += b
        acts.append(z if idx == len(layers) - 1 else _sigmoid(z, out=z))
    return acts.pop(), acts


def _mlp_backprop(
    spec: MlpSpec, values: np.ndarray, acts: list, delta: np.ndarray, gvec: np.ndarray
) -> None:
    layers = _mlp_views(spec, values)
    gviews = _mlp_views(spec, gvec)
    for idx in range(len(layers) - 1, -1, -1):
        w, _ = layers[idx]
        gw, gb = gviews[idx]
        # written straight into gvec; ``+= 0.0`` keeps the bits of adding into
        # zeros (``0.0 + x``), which turns -0.0 into +0.0
        np.matmul(acts[idx].T, delta, out=gw)
        gw += 0.0
        np.sum(delta, axis=0, out=gb)
        gb += 0.0
        if idx > 0:
            a = acts[idx]
            delta = delta @ w.T
            delta *= a
            delta *= 1.0 - a


# ---------------------------------------------------------------------------
# LSTM forward/backprop (exact BPTT, grouped by sequence length)


def _lstm_layer_forward(
    w: np.ndarray, b: np.ndarray, x3: np.ndarray, keep_cache: bool
) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
    n_seq, steps, _ = x3.shape
    h_dim = b.shape[0] // 4
    h = np.zeros((n_seq, h_dim))
    c = np.zeros((n_seq, h_dim))
    hs = np.empty((n_seq, steps, h_dim))
    caches: list[tuple[np.ndarray, ...]] = []
    for t in range(steps):
        xh = np.concatenate([x3[:, t, :], h], axis=1)
        z = xh @ w + b
        gi = _sigmoid(z[:, :h_dim])
        gf = _sigmoid(z[:, h_dim : 2 * h_dim])
        gg = np.tanh(z[:, 2 * h_dim : 3 * h_dim])
        go = _sigmoid(z[:, 3 * h_dim :])
        c_prev = c
        c = gf * c_prev + gi * gg
        tc = np.tanh(c)
        h = go * tc
        hs[:, t, :] = h
        if keep_cache:
            caches.append((xh, gi, gf, gg, go, c_prev, tc))
    return hs, caches


def _lstm_layer_backward(
    w: np.ndarray,
    caches: list[tuple[np.ndarray, ...]],
    dh_seq: np.ndarray,
    gw: np.ndarray,
    gb: np.ndarray,
) -> np.ndarray:
    n_seq, steps, h_dim = dh_seq.shape
    in_dim = w.shape[0] - h_dim
    dx3 = np.empty((n_seq, steps, in_dim))
    dh_next = np.zeros((n_seq, h_dim))
    dc_next = np.zeros((n_seq, h_dim))
    for t in range(steps - 1, -1, -1):
        xh, gi, gf, gg, go, c_prev, tc = caches[t]
        dh = dh_seq[:, t, :] + dh_next
        d_go = dh * tc
        dc = dh * go * (1.0 - tc * tc) + dc_next
        d_gi = dc * gg
        d_gf = dc * c_prev
        d_gg = dc * gi
        dz = np.concatenate(
            [
                d_gi * gi * (1.0 - gi),
                d_gf * gf * (1.0 - gf),
                d_gg * (1.0 - gg * gg),
                d_go * go * (1.0 - go),
            ],
            axis=1,
        )
        gw += xh.T @ dz
        gb += dz.sum(axis=0)
        dxh = dz @ w.T
        dx3[:, t, :] = dxh[:, :in_dim]
        dh_next = dxh[:, in_dim:]
        dc_next = dc * gf
    return dx3


def _lstm_forward(
    spec: LstmSpec, values: np.ndarray, batch: Batch, keep_cache: bool
) -> tuple[np.ndarray, list[tuple]]:
    """Logits in frame order plus, with ``keep_cache``, one entry per length
    group: its sequence spans, top hidden states and per-layer BPTT caches."""
    layers, w_out, b_out = _lstm_views(spec, values)
    logits = np.empty((batch.num_frames, spec.output_dim))
    groups = []
    for steps, spans in _length_groups(batch.seq_lengths).items():
        inp = np.stack([batch.inputs[lo:hi] for lo, hi in spans])
        caches = []
        for w, b in layers:
            inp, layer_caches = _lstm_layer_forward(w, b, inp, keep_cache)
            caches.append(layer_caches)
        h_top = inp.reshape(len(spans) * steps, spec.hidden_dim)
        group_logits = h_top @ w_out + b_out
        for row, (lo, hi) in enumerate(spans):
            logits[lo:hi] = group_logits[row * steps : (row + 1) * steps]
        if keep_cache:
            groups.append((spans, h_top, caches))
    return logits, groups


def _lstm_backprop(
    spec: LstmSpec, values: np.ndarray, groups: list, delta: np.ndarray, gvec: np.ndarray
) -> None:
    layers, w_out, _ = _lstm_views(spec, values)
    gvec.fill(0.0)
    gl, gw_out, gb_out = _lstm_views(spec, gvec)
    for spans, h_top, caches in groups:
        d = np.concatenate([delta[lo:hi] for lo, hi in spans])
        gw_out += h_top.T @ d
        gb_out += d.sum(axis=0)
        dh = (d @ w_out.T).reshape(len(spans), -1, spec.hidden_dim)
        for idx in range(spec.num_layers - 1, -1, -1):
            gw, gb = gl[idx]
            dh = _lstm_layer_backward(layers[idx][0], caches[idx], dh, gw, gb)


# ---------------------------------------------------------------------------
# public operations


def _forward(
    spec: ModelSpec,
    params: ParamVector | np.ndarray,
    batch: Batch,
    keep_cache: bool = False,
    workspace: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, Callable[[np.ndarray, np.ndarray], None]]:
    """Logits in frame order plus ``backprop(delta, gvec)``, which writes the
    gradient for the logit error ``delta`` into all of ``gvec``; it needs
    ``keep_cache=True``, without which the recurrent model keeps no caches.
    An MLP writes its layer outputs, logits included, into ``workspace``
    when given."""
    _check_call(spec, params, batch)
    values = params.values if isinstance(params, ParamVector) else params
    if isinstance(spec, MlpSpec):
        logits, acts = _mlp_forward(spec, values, batch, workspace)
        return logits, partial(_mlp_backprop, spec, values, acts)
    logits, groups = _lstm_forward(spec, values, batch, keep_cache)
    return logits, partial(_lstm_backprop, spec, values, groups)


def forward_loss(spec: ModelSpec, params: ParamVector, batch: Batch) -> float:
    """Mean cross-entropy over all frames in the batch."""
    logits, _ = _forward(spec, params, batch)
    _, frame_ce = _softmax_ce(logits, batch.targets)
    return float(frame_ce.sum() / batch.num_frames)


def backward(
    spec: ModelSpec,
    params: ParamVector | np.ndarray,
    batch: Batch,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Loss plus its gradient with respect to every parameter.

    ``params`` may be a worker's own writable parameter array. The gradient
    is written into every element of ``out`` (a C-contiguous float64 array
    of the parameter count, never ``params`` itself) and returned; without
    ``out`` the same code writes a fresh array. The returned loss is bitwise
    the value :func:`forward_loss` computes on the same inputs; both run the
    identical forward code.
    """
    if out is not None and not (
        out.shape == (len(params),)
        and out.dtype == np.float64
        and out.flags.c_contiguous
    ):
        raise ValueError("out must be a C-contiguous float64 array of the parameter count")
    logits, backprop = _forward(spec, params, batch, keep_cache=True)
    delta, frame_ce = _softmax_ce(logits, batch.targets)
    # the error signal d(mean cross-entropy)/d(logits): (softmax - one-hot) / frames
    delta[np.arange(batch.num_frames), batch.targets] -= 1.0
    delta /= batch.num_frames
    gvec = np.empty(len(params)) if out is None else out
    backprop(delta, gvec)
    return float(frame_ce.sum() / batch.num_frames), gvec


def predict_frames(
    spec: ModelSpec,
    params: ParamVector,
    inputs: np.ndarray,
    seq_lengths: Sequence[int] | None = None,
    *,
    workspace: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Most likely class per frame; ties resolve to the lowest class index.

    ``seq_lengths`` segments the frames into sequences for recurrent models
    (default: one sequence). Softmax is monotone, so the argmax is taken on
    the logits directly. ``workspace`` is :func:`forward_workspace` for this
    spec and frame count; the forward overwrites it, and the returned
    predictions are a fresh array either way.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    dummy = np.zeros(inputs.shape[:1], dtype=np.int64)
    batch = Batch(inputs, dummy, tuple(seq_lengths) if seq_lengths else ())
    logits, _ = _forward(spec, params, batch, workspace=workspace)
    return np.argmax(logits, axis=1)
