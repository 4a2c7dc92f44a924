"""Independent reference implementations the tests check the library against.

Everything in here is deliberately written in a different style from the
package (scalar loops, math.* functions, textbook recursions) and never calls
the code paths it is used to verify.
"""

from __future__ import annotations

import math

import numpy as np

from blocktrain.models import Batch, LstmSpec, MlpSpec, ModelSpec, forward_loss
from blocktrain.numerics import ParamVector


def finite_difference_gradient(
    spec: ModelSpec, params: ParamVector, batch: Batch, step: float = 1e-5
) -> np.ndarray:
    """Central differences of forward_loss, component by component."""
    base = params.values
    grad = np.empty(len(base))
    for i in range(len(base)):
        up = base.copy()
        up[i] += step
        down = base.copy()
        down[i] -= step
        loss_up = forward_loss(spec, ParamVector(up), batch)
        loss_down = forward_loss(spec, ParamVector(down), batch)
        grad[i] = (loss_up - loss_down) / (2.0 * step)
    return grad


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-4) -> float:
    """Worst per-component relative error, floored to stay meaningful near 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def _sig(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _ce(logits: list[float], target: int) -> float:
    m = max(logits)
    lse = m + math.log(sum(math.exp(v - m) for v in logits))
    return lse - logits[target]


def mlp_loss_reference(spec: MlpSpec, values: np.ndarray, batch: Batch) -> float:
    """Straight-line scalar re-implementation of the MLP forward pass."""
    sizes = spec.layer_sizes
    offset = 0
    layers = []
    for d_in, d_out in zip(sizes, sizes[1:]):
        w = [[float(values[offset + r * d_out + c]) for c in range(d_out)] for r in range(d_in)]
        offset += d_in * d_out
        b = [float(values[offset + c]) for c in range(d_out)]
        offset += d_out
        layers.append((w, b))
    total = 0.0
    for frame, target in zip(batch.inputs, batch.targets):
        act = [float(v) for v in frame]
        for idx, (w, b) in enumerate(layers):
            z = [
                sum(act[r] * w[r][c] for r in range(len(act))) + b[c]
                for c in range(len(b))
            ]
            act = z if idx == len(layers) - 1 else [_sig(v) for v in z]
        total += _ce(act, int(target))
    return total / batch.num_frames


def lstm_loss_reference(spec: LstmSpec, values: np.ndarray, batch: Batch) -> float:
    """Straight-line scalar re-implementation of the stacked LSTM forward."""
    h_dim = spec.hidden_dim
    offset = 0
    layers = []
    d = spec.input_dim
    for _ in range(spec.num_layers):
        rows = d + h_dim
        w = [
            [float(values[offset + r * 4 * h_dim + c]) for c in range(4 * h_dim)]
            for r in range(rows)
        ]
        offset += rows * 4 * h_dim
        b = [float(values[offset + c]) for c in range(4 * h_dim)]
        offset += 4 * h_dim
        layers.append((w, b))
        d = h_dim
    k = spec.output_dim
    w_out = [[float(values[offset + r * k + c]) for c in range(k)] for r in range(h_dim)]
    offset += h_dim * k
    b_out = [float(values[offset + c]) for c in range(k)]

    total = 0.0
    pos = 0
    for length in batch.seq_lengths:
        seq = [[float(v) for v in row] for row in batch.inputs[pos : pos + length]]
        targets = [int(t) for t in batch.targets[pos : pos + length]]
        pos += length
        for w, b in layers:
            h = [0.0] * h_dim
            c = [0.0] * h_dim
            outputs = []
            for x in seq:
                xh = x + h
                z = [
                    sum(xh[r] * w[r][col] for r in range(len(xh))) + b[col]
                    for col in range(4 * h_dim)
                ]
                gi = [_sig(z[j]) for j in range(h_dim)]
                gf = [_sig(z[h_dim + j]) for j in range(h_dim)]
                gg = [math.tanh(z[2 * h_dim + j]) for j in range(h_dim)]
                go = [_sig(z[3 * h_dim + j]) for j in range(h_dim)]
                c = [gf[j] * c[j] + gi[j] * gg[j] for j in range(h_dim)]
                h = [go[j] * math.tanh(c[j]) for j in range(h_dim)]
                outputs.append(h)
            seq = outputs
        for h, target in zip(seq, targets):
            logits = [
                sum(h[r] * w_out[r][col] for r in range(h_dim)) + b_out[col]
                for col in range(k)
            ]
            total += _ce(logits, target)
    return total / batch.num_frames


def corpus_reference(
    num_speakers: int,
    utt_per_speaker: int,
    num_frames: int,
    base_dim: int,
    num_classes: int,
    rng: np.random.Generator,
    *,
    label_change_prob: float = 0.1,
    class_separation: float = 1.5,
    speaker_spread: float = 0.6,
    noise_scale: float = 1.0,
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The synthetic corpus as ``(speaker, frames, labels)`` triples, its
    labels walked frame by frame with the same draws in the same order."""
    class_means = rng.normal(0.0, class_separation, size=(num_classes, base_dim))
    out = []
    for speaker in range(num_speakers):
        offset = rng.normal(0.0, speaker_spread, size=base_dim)
        for _ in range(utt_per_speaker):
            labels = np.empty(num_frames, dtype=np.int64)
            labels[0] = rng.integers(num_classes)
            if num_classes > 1:
                change = rng.random(num_frames) < label_change_prob
                hops = rng.integers(1, num_classes, size=num_frames)
                for t in range(1, num_frames):
                    if change[t]:
                        labels[t] = (labels[t - 1] + hops[t]) % num_classes
                    else:
                        labels[t] = labels[t - 1]
            else:
                labels[:] = 0
            noise = rng.normal(0.0, noise_scale, size=(num_frames, base_dim))
            out.append((speaker, class_means[labels] + offset + noise, labels))
    return out


def bmuf_reference(
    eta: float, zeta: float, theta0: np.ndarray, block_means: list[np.ndarray]
) -> list[np.ndarray]:
    """Textbook filtered-update recursion; returns the global model per block."""
    theta = np.array(theta0, dtype=float)
    delta = np.zeros_like(theta)
    out = []
    for mean in block_means:
        g = np.asarray(mean, dtype=float) - theta
        delta = eta * delta + zeta * g
        theta = theta + delta
        out.append(theta.copy())
    return out


def sgd_reference(
    lr: float, momentum: float, params0: np.ndarray, grads: list[np.ndarray]
) -> np.ndarray:
    """Scalar momentum-SGD recursion."""
    params = [float(v) for v in params0]
    velocity = [0.0] * len(params)
    for grad in grads:
        velocity = [momentum * v - lr * float(g) for v, g in zip(velocity, grad)]
        params = [p + v for p, v in zip(params, velocity)]
    return np.array(params)


def centered_mean_reference(
    parts: list[np.ndarray], out: np.ndarray, work: np.ndarray
) -> None:
    """The centered-mean kernel with its sum started from zeros, the bitwise
    reference for the library's kernel, which starts from the first
    difference instead."""
    base = parts[0]
    out.fill(0.0)
    for part in parts[1:]:
        np.subtract(part, base, out=work)
        out += work
    out /= len(parts)
    out += base
