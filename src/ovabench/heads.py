"""Four probability heads over a shared embedding, with stable losses.

Two axes: how logits are formed (affine map of the embedding, or negative
Euclidean distance to per-class weight columns) and how logits become
probabilities (a softmax across classes, or K independent sigmoids).  The
one-vs-all distance head rescales the sigmoid by 2 so that a distance of
zero to a class center yields probability exactly 1.

Every log-probability and gradient is computed in closed form from the
logits, never by exponentiating and re-logging probabilities.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property

import numpy as np

from .nncore import ModelParams, _as_matrix, backward, forward

# Probabilities entering the diverging one-vs-all log(1 - p) term are clamped
# into [PROB_CLAMP, 1 - PROB_CLAMP]; the term is unbounded as distance -> 0.
PROB_CLAMP = 1e-12

_LN2 = math.log(2.0)

# Distance logits are scored in row blocks whose difference tensor holds at most
# this many entries (1 MiB of float64), so scoring memory stays bounded.
DISTANCE_BLOCK_ENTRIES = 1 << 17


class HeadKind(str, Enum):
    """Which probability parametrization a model uses; the string values are
    the names used in checkpoints, configs and the CLI."""

    SOFTMAX_AFFINE = "softmax"
    SOFTMAX_DISTANCE = "dm"
    OVA_AFFINE = "ova"
    OVA_DISTANCE = "ova_dm"

    # cached: a training step reads these several times
    @cached_property
    def is_distance(self) -> bool:
        return self in (HeadKind.SOFTMAX_DISTANCE, HeadKind.OVA_DISTANCE)

    @cached_property
    def is_ova(self) -> bool:
        return self in (HeadKind.OVA_AFFINE, HeadKind.OVA_DISTANCE)

    @cached_property
    def uses_biases(self) -> bool:
        return not self.is_distance


def _check_head_params(head: HeadKind, params: ModelParams) -> None:
    if head.uses_biases != (params.head_biases is not None):
        need = "requires" if head.uses_biases else "must not carry"
        raise ValueError(f"head '{head.value}' {need} head_biases")


def _check_labels(labels, z: np.ndarray) -> np.ndarray:
    """Labels as int64: one per row of the logits ``z``, each in [0, K)."""
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ValueError("labels must be a vector")
    if y.shape[0] != z.shape[0]:
        raise ValueError("labels length does not match batch size")
    y, k = y.astype(np.int64, copy=False), z.shape[1]
    if y.size and y.view(np.uint64).max() >= k:  # a negative label wraps above k
        bad = int(np.argmax((y < 0) | (y >= k)))
        raise ValueError(f"label {y[bad]} at index {bad} outside [0, {k})")
    return y


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + t) where z >= 0 and t / (1 + t) below, with t = e^-|z|; two arrays."""
    t = np.abs(z)
    np.exp(np.negative(t, out=t), out=t)
    out = t.copy()
    np.copyto(out, 1.0, where=z >= 0)
    t += 1.0
    return np.divide(out, t, out=out)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _distances(params: ModelParams, emb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances [rows x K] from embeddings to class centers, and the differences
    they sum, [rows x embed*K] with entry ``e*K + k``, built in two long passes."""
    k = params.head_weights.shape[1]
    diff = np.repeat(emb, k, axis=1)
    diff -= params.head_weights.reshape(-1)
    by_class = _by_class(diff, k)
    return np.sqrt(np.einsum("bke,bke->bk", by_class, by_class)), diff


def _by_class(diff: np.ndarray, k: int) -> np.ndarray:
    """The [rows x K x embed] view of ``_distances``' differences.  Its strides are
    those of the broadcast ``emb[:, None, :] - W.T[None]``, and einsum's summation
    order follows its operands' strides, so the bits depend on them."""
    return diff.reshape(diff.shape[0], -1, k).transpose(0, 2, 1)


def logits(head: HeadKind, params: ModelParams, embeddings) -> np.ndarray:
    """Per-class logits [batch x K] for the given head.

    Affine heads return ``f @ W + b``; distance heads return the negative
    Euclidean distance from each embedding to each weight column (so all
    entries are <= 0).
    """
    emb = _as_matrix(embeddings, "embeddings")
    _check_head_params(head, params)
    if emb.shape[1] != params.head_weights.shape[0]:
        raise ValueError(f"embedding width {emb.shape[1]} does not match head "
                         f"fan_in {params.head_weights.shape[0]}")
    if head.is_distance:
        out = np.empty((emb.shape[0], params.head_weights.shape[1]))
        rows = max(1, DISTANCE_BLOCK_ENTRIES // params.head_weights.size)
        for start in range(0, emb.shape[0], rows):
            out[start:start + rows] = -_distances(params, emb[start:start + rows])[0]
        return out
    z = emb @ params.head_weights
    return np.add(z, params.head_biases, out=z)


def probabilities(head: HeadKind, logits_) -> np.ndarray:
    """Map logits to per-class probabilities [batch x K].

    Softmax heads normalize row-wise (max-subtracted for stability); the
    one-vs-all affine head applies independent sigmoids, and the one-vs-all
    distance head applies 2*sigmoid so that logit 0 (distance 0) gives
    probability exactly 1.  One-vs-all rows do not sum to 1.
    """
    z = _as_matrix(logits_, "logits")
    if head.is_ova:
        if head is HeadKind.OVA_DISTANCE:
            if (z > 0).any():
                bad = int(np.argmax((z > 0).any(axis=1)))
                raise ValueError(f"positive logit for distance head at batch index {bad}; "
                                 "distance logits must be <= 0")
            p = _sigmoid(z)
            return np.multiply(p, 2.0, out=p)
        return _sigmoid(z)
    e = z - z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=1, keepdims=True), out=e)


def _loss_and_logit_gradient(head: HeadKind, z: np.ndarray, labels,
                             gradient: bool = True) -> tuple[float, np.ndarray | None]:
    """Mean loss of the logits ``z`` and, with ``gradient``, its gradient w.r.t. ``z``,
    sharing intermediates and one label check.  The gradient is (p - onehot)/batch,
    but for the one-vs-all distance head, in d = -z: sigmoid(d) for the label class
    and -1/sinh(d) for the rest, zeroed wherever the loss clamp is active."""
    if not z.shape[0]:  # the mean would divide by zero
        raise ValueError("batch must contain at least one row")
    y = _check_labels(labels, z)
    rows = np.arange(z.shape[0])
    if head is HeadKind.OVA_DISTANCE:
        d = -z
        d_own = d[rows, y]
        # -log p = softplus(d) - ln 2;  1 - p = (e^d - 1)/(e^d + 1) = tanh(d/2)
        one_minus_p = np.tanh(0.5 * d)
        neg_all = -np.log(np.maximum(one_minus_p, PROB_CLAMP))
        per_example = _softplus(d_own) - _LN2 + neg_all.sum(axis=1) - neg_all[rows, y]
    elif head.is_ova:
        sp_pos = _softplus(z)
        per_example = _softplus(-z[rows, y]) + sp_pos.sum(axis=1) - sp_pos[rows, y]
    else:
        m = z.max(axis=1, keepdims=True)
        e = np.exp(z - m)
        e_sum = e.sum(axis=1, keepdims=True)
        per_example = (m + np.log(e_sum))[:, 0] - z[rows, y]
    if not np.isfinite(per_example).all():
        bad = int(np.argmax(~np.isfinite(per_example)))
        raise ValueError(f"non-finite loss for batch index {bad}")
    value = float(np.add.reduce(per_example) / z.shape[0])  # np.mean's sum and division
    if not math.isfinite(value):  # finite terms whose sum overflows
        raise ValueError("non-finite mean loss")
    if not gradient:
        return value, None
    if head is HeadKind.OVA_DISTANCE:
        clamped = one_minus_p <= PROB_CLAMP
        with np.errstate(over="ignore"):
            grad_d = np.where(clamped, 0.0, -1.0 / np.sinh(np.where(clamped, 1.0, d)))
        grad_d[rows, y] = _sigmoid(d_own)
        grad_d /= -z.shape[0]  # the same bits as -grad_d / batch
        return value, grad_d
    p = _sigmoid(z) if head.is_ova else e / e_sum
    p[rows, y] -= 1.0
    p /= z.shape[0]
    return value, p


def loss(head: HeadKind, logits_, labels) -> float:
    """Mean negative log-likelihood of the labels under the head.

    Softmax heads use log-sum-exp; one-vs-all heads sum K binary terms,
    -log p for the label class and -log(1 - p) for the rest, in stable
    closed forms.  Raises if any per-example loss is non-finite, carrying
    the batch index, or if their mean is, without a numpy warning first.
    """
    with np.errstate(over="ignore"):  # an overflowing mean is refused below
        return _loss_and_logit_gradient(head, _as_matrix(logits_, "logits"), labels, False)[0]


def loss_and_grads(head: HeadKind, params: ModelParams, inputs, labels,
                   grads: ModelParams) -> tuple[float, ModelParams]:
    """Forward pass, loss, and full parameter gradients in one call.

    Overwrites every entry of ``grads``, a vector in the layout of ``params``,
    and returns ``(loss, grads)``, so a training loop can reuse one buffer.
    """
    activations = forward(params, inputs)
    emb = activations[-1]
    _check_head_params(head, params)
    if head.is_distance:
        d, diff = _distances(params, emb)
        value, g = _loss_and_logit_gradient(head, -d, labels)
        with np.errstate(divide="ignore", invalid="ignore"):
            diff /= np.tile(d, emb.shape[1])
        unit = _by_class(diff, d.shape[1])
        if not d.all():  # subgradient 0 for the norm at zero distance
            unit[d == 0.0] = 0.0
        grads.head_weights[...] = np.einsum("bk,bke->ek", g, unit)
        emb_grad = -np.einsum("bk,bke->be", g, unit)
    else:
        value, g = _loss_and_logit_gradient(head, emb @ params.head_weights
                                            + params.head_biases, labels)
        np.matmul(emb.T, g, out=grads.head_weights)
        g.sum(axis=0, out=grads.head_biases)
        emb_grad = g @ params.head_weights.T
    backward(params, activations, emb_grad, grads)
    return value, grads


def predict(probs) -> tuple[np.ndarray, np.ndarray]:
    """Predicted label (argmax, ties to the lowest index) and its probability.

    One-vs-all confidences are the raw maximum sigmoid output; nothing is
    renormalized across classes.
    """
    p = _as_matrix(probs, "probs")
    labels_out = p.argmax(axis=1)
    return labels_out, p[np.arange(p.shape[0]), labels_out]
