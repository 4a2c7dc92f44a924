"""Tiny dense and recurrent frame classifiers over flat parameter vectors.

A spec describes the architecture, a :class:`~blocktrain.numerics.ParamVector`
(or a training worker's own parameter array) holds every weight, and the
functions below unpack views into that vector on the fly. Each family has
one forward pass, which returns logits in the batch's frame order plus the
state its backprop needs (``_mlp_forward``, ``_lstm_forward``), and one
backprop, which writes the gradient for a given logit error into every
element of a flat gradient vector (``_mlp_backprop``, ``_lstm_backprop``).
``_forward`` is the one family dispatch behind the three public operations,
which share one ``(spec, params, batch)`` signature: :func:`forward_loss` is
the forward plus the softmax cross-entropy, :func:`backward` adds the error
signal and the backprop, and :func:`predict_frames` takes the argmax of the
logits. :class:`Batch` is the one checked model input: the corpus's
utterances validate through it, and every operation takes one. The recurrent
model runs exact backpropagation through time within each sequence, resets
its state at sequence boundaries, and runs equal-length sequences as one
batch; prediction keeps no BPTT caches. An MLP forward can write its layer
outputs into a caller's workspace (:func:`forward_workspace`), so that
evaluating many checkpoints on one set allocates its activations once, and
:func:`backward` can write the gradient into a caller's buffer, so that a
training worker allocates no parameter-sized array per step.

Parameter packing (row-major, in order): ``_layout(spec)`` lists the
``(rows, cols)`` of every layer, packed as ``W (rows, cols)`` then ``b (cols,)``;
it is the one place the code encodes the packing.

* MLP: ``(d_l, d_{l+1})`` per pair of adjacent layer sizes. Hidden
  activations are sigmoid, the last layer produces softmax logits.
* LSTM: ``(D + H, 4H)`` per recurrent layer, applied to ``[x_t, h_{t-1}]``,
  gates in the order input, forget, candidate, output; then the output
  projection ``(H, K)``.

The loss everywhere is mean cross-entropy per frame, so gradient magnitudes
do not depend on how many frames a worker happens to hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Sequence, Union

import numpy as np

from .numerics import ParamVector, frozen, is_integer

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


def _integers(name: str, values: Sequence) -> tuple[int, ...]:
    """``values`` as Python ints; a ValueError naming ``name`` at the first
    one that is not an integer (a bool is not, a numpy integer is)."""
    values = tuple(values)
    for value in values:
        if not is_integer(value):
            raise ValueError(f"{name}: {value!r} is not an integer")
    return tuple(map(int, values))


@dataclass(frozen=True)
class MlpSpec:
    """Feed-forward net: sigmoid hidden layers, softmax output."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = _integers("layer_sizes", self.layer_sizes)
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
        for name in ("input_dim", "hidden_dim", "num_layers", "output_dim"):
            object.__setattr__(self, name, _integers(name, [getattr(self, name)])[0])
        if self.input_dim < 1 or self.hidden_dim < 1 or self.output_dim < 1:
            raise ValueError("dimensions must be >= 1")
        if self.num_layers < 1:
            raise ValueError("need at least one recurrent layer")


ModelSpec = Union[MlpSpec, LstmSpec]


@dataclass(frozen=True)
class Batch:
    """Frames with per-frame class targets, segmented into sequences.

    ``inputs`` is ``(num_frames >= 1, dim)`` of finite values, ``targets``
    is ``(num_frames,)`` of non-negative integer class indices, and
    ``seq_lengths``, positive integers, partitions the frame axis into
    contiguous sequences (recurrent state resets at each boundary). A feed
    forward model ignores the segmentation. When ``seq_lengths`` is omitted
    the whole batch is one sequence. Both arrays are kept read-only: writable ones are copied,
    read-only ones (views of checked data) are wrapped without a copy.
    """

    inputs: np.ndarray
    targets: np.ndarray
    seq_lengths: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets)
        if targets.size and targets.dtype.kind not in "iu":  # signed or unsigned
            raise ValueError(f"targets must be integer class indices, not {targets.dtype}")
        targets = targets.astype(np.int64, copy=False)
        if inputs.ndim != 2 or inputs.shape[0] < 1:
            raise ValueError(f"inputs must be (frames >= 1, dim), got {inputs.shape}")
        if targets.shape != (inputs.shape[0],):
            raise ValueError("targets must have one entry per frame")
        if not np.isfinite(inputs).all():
            raise ValueError("inputs contain non-finite values")
        if targets.size and targets.min() < 0:
            raise ValueError("targets must be non-negative class indices")
        lengths = _integers("seq_lengths", self.seq_lengths) or (inputs.shape[0],)
        if min(lengths) < 1:
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


@cache
def _layout(spec: ModelSpec) -> tuple[tuple[int, int], ...]:
    """``(rows, cols)`` of every packed layer in packing order; the parameter
    count, the views, the initialisation and the MLP workspace all read it."""
    if isinstance(spec, MlpSpec):
        sizes = spec.layer_sizes
        return tuple(zip(sizes, sizes[1:]))
    h = spec.hidden_dim
    inputs = [spec.input_dim] + [h] * (spec.num_layers - 1)
    return tuple((d + h, 4 * h) for d in inputs) + ((h, spec.output_dim),)


@cache
def param_count(spec: ModelSpec) -> int:
    """Number of trainable parameters described by ``spec``."""
    return sum(rows * cols + cols for rows, cols in _layout(spec))


def _views(spec: ModelSpec, arr: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(W, b)`` views into ``arr`` for every layer of :func:`_layout`."""
    views = []
    off = 0
    for rows, cols in _layout(spec):
        w = arr[off : off + rows * cols].reshape(rows, cols)
        off += rows * cols
        views.append((w, arr[off : off + cols]))
        off += cols
    return views


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
    for idx, (w, b) in enumerate(_views(spec, out)):
        scale = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-scale, scale, size=w.shape)
        if isinstance(spec, LstmSpec) and idx < spec.num_layers:
            b[spec.hidden_dim : 2 * spec.hidden_dim] = 1.0  # forget gate
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
    return [np.empty((rows, cols)) for _, cols in _layout(spec)]


def _mlp_forward(
    layers: list[tuple[np.ndarray, np.ndarray]],
    batch: Batch,
    out: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits plus every layer's input activations, for the weight views
    ``layers`` (:func:`_views`).

    Layer ``l`` writes its output into ``out[l]`` when given (see
    :func:`forward_workspace`), else into a fresh array; the matmul is the
    same BLAS call either way, so the bits are too.
    """
    acts = [batch.inputs]
    for idx, (w, b) in enumerate(layers):
        z = np.matmul(acts[-1], w, out=None if out is None else out[idx])
        z += b
        acts.append(z if idx == len(layers) - 1 else _sigmoid(z, out=z))
    return acts.pop(), acts


def _mlp_backprop(
    spec: MlpSpec, layers: list, acts: list, delta: np.ndarray, gvec: np.ndarray
) -> None:
    gviews = _views(spec, gvec)
    for idx in range(len(layers) - 1, -1, -1):
        w, _ = layers[idx]
        gw, gb = gviews[idx]
        # written straight into gvec; ``+= 0.0`` keeps the bits of adding into
        # zeros (``0.0 + x``), which turns -0.0 into +0.0
        np.matmul(acts[idx].T, delta, out=gw)
        gw += 0.0
        np.add.reduce(delta, axis=0, out=gb)
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
    spec: LstmSpec, views: list, batch: Batch, keep_cache: bool
) -> tuple[np.ndarray, list[tuple]]:
    """Logits in frame order for the weight views ``views``
    (:func:`_views`) plus, with ``keep_cache``, one entry per length
    group: its sequence spans, top hidden states and per-layer BPTT caches."""
    *layers, (w_out, b_out) = views
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
    spec: LstmSpec, views: list, groups: list, delta: np.ndarray, gvec: np.ndarray
) -> None:
    *layers, (w_out, _) = views
    gvec.fill(0.0)
    *gl, (gw_out, gb_out) = _views(spec, gvec)
    for spans, h_top, caches in groups:
        d = np.concatenate([delta[lo:hi] for lo, hi in spans])
        gw_out += h_top.T @ d
        gb_out += np.add.reduce(d, axis=0)
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
    # the backprop reuses the forward's weight views
    views = _views(spec, values)
    if isinstance(spec, MlpSpec):
        logits, acts = _mlp_forward(views, batch, workspace)
        return logits, partial(_mlp_backprop, spec, views, acts)
    logits, groups = _lstm_forward(spec, views, batch, keep_cache)
    return logits, partial(_lstm_backprop, spec, views, groups)


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
    params: ParamVector | np.ndarray,
    batch: Batch,
    *,
    workspace: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Most likely class per frame of ``batch``; ties resolve to the lowest
    class index.

    Only the inputs and the sequence segmentation feed the forward; the
    targets are checked like every operation's, not read. Softmax is
    monotone, so the argmax is taken on the logits directly. ``workspace`` is
    :func:`forward_workspace` for this spec and frame count; the forward
    overwrites it, and the returned predictions are a fresh array either way.
    """
    logits, _ = _forward(spec, params, batch, workspace=workspace)
    return np.argmax(logits, axis=1)
