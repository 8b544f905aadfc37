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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .nncore import ModelParams, _as_matrix, backward, forward

__all__ = [
    "HeadKind",
    "PROB_CLAMP",
    "logit_gradient",
    "logits",
    "loss",
    "loss_and_grads",
    "predict",
    "probabilities",
]

# Probabilities entering the diverging one-vs-all log(1 - p) term are clamped
# into [PROB_CLAMP, 1 - PROB_CLAMP]; the term is unbounded as distance -> 0.
PROB_CLAMP = 1e-12

_LN2 = math.log(2.0)


class HeadKind(str, Enum):
    """Which probability parametrization a model uses.

    The string values are the serialized names used in checkpoints, configs
    and the CLI.
    """

    SOFTMAX_AFFINE = "softmax"
    SOFTMAX_DISTANCE = "dm"
    OVA_AFFINE = "ova"
    OVA_DISTANCE = "ova_dm"

    @property
    def is_distance(self) -> bool:
        return self in (HeadKind.SOFTMAX_DISTANCE, HeadKind.OVA_DISTANCE)

    @property
    def is_ova(self) -> bool:
        return self in (HeadKind.OVA_AFFINE, HeadKind.OVA_DISTANCE)

    @property
    def uses_biases(self) -> bool:
        return not self.is_distance


@dataclass
class _HeadGradients:
    """Gradients of the mean loss w.r.t. head parameters and the embedding."""

    weights: np.ndarray
    biases: np.ndarray | None
    embedding: np.ndarray


def _check_head_params(head: HeadKind, params: ModelParams) -> None:
    if head.uses_biases and params.head_biases is None:
        raise ValueError(f"head '{head.value}' requires head_biases")
    if not head.uses_biases and params.head_biases is not None:
        raise ValueError(f"head '{head.value}' must not carry head_biases")


def _check_labels(labels, num_classes: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ValueError("labels must be a vector")
    y = y.astype(np.int64)
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        bad = int(np.argmax((y < 0) | (y >= num_classes)))
        raise ValueError(f"label {y[bad]} at index {bad} outside [0, {num_classes})")
    return y


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


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
        diff = emb[:, None, :] - params.head_weights.T[None, :, :]
        return -np.sqrt(np.einsum("bke,bke->bk", diff, diff))
    return emb @ params.head_weights + params.head_biases


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
            return 2.0 * _sigmoid(z)
        return _sigmoid(z)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss(head: HeadKind, logits_, labels) -> float:
    """Mean negative log-likelihood of the labels under the head.

    Softmax heads use log-sum-exp; one-vs-all heads sum K binary terms,
    -log p for the label class and -log(1 - p) for the rest, in stable
    closed forms.  Raises if any per-example loss is non-finite, carrying
    the batch index.
    """
    z = _as_matrix(logits_, "logits")
    y = _check_labels(labels, z.shape[1])
    if y.shape[0] != z.shape[0]:
        raise ValueError("labels length does not match batch size")
    rows = np.arange(z.shape[0])
    if head.is_ova:
        if head is HeadKind.OVA_DISTANCE:
            d = -z
            d_own = d[rows, y]
            # -log p = softplus(d) - ln 2;  1 - p = (e^d - 1)/(e^d + 1) = tanh(d/2)
            pos = _softplus(d_own) - _LN2
            one_minus_p = np.maximum(np.tanh(0.5 * d), PROB_CLAMP)
            neg_all = -np.log(one_minus_p)
            per_example = pos + neg_all.sum(axis=1) - neg_all[rows, y]
        else:
            sp_pos = _softplus(z)
            per_example = _softplus(-z[rows, y]) + sp_pos.sum(axis=1) - sp_pos[rows, y]
    else:
        m = z.max(axis=1)
        lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
        per_example = lse - z[rows, y]
    if not np.isfinite(per_example).all():
        bad = int(np.argmax(~np.isfinite(per_example)))
        raise ValueError(f"non-finite loss for batch index {bad}")
    return float(per_example.mean())


def logit_gradient(head: HeadKind, logits_, labels) -> np.ndarray:
    """Gradient of the mean loss w.r.t. the logits, [batch x K].

    For softmax and one-vs-all affine heads this is the classic
    (p - onehot)/batch.  For the one-vs-all distance head the gradient is
    derived in distance space (d = -z): sigmoid(d) for the label class and
    -1/sinh(d) for the rest, zeroed wherever the loss clamp is active.
    """
    z = _as_matrix(logits_, "logits")
    y = _check_labels(labels, z.shape[1])
    batch = z.shape[0]
    rows = np.arange(batch)
    own = np.zeros_like(z, dtype=bool)
    own[rows, y] = True
    if head is HeadKind.OVA_DISTANCE:
        d = -z
        clamped = np.tanh(0.5 * d) <= PROB_CLAMP
        safe_d = np.where(clamped, 1.0, d)
        with np.errstate(over="ignore"):
            grad_d = np.where(clamped, 0.0, -1.0 / np.sinh(safe_d))
        grad_d[own] = _sigmoid(d[own])
        return -grad_d / batch
    p = probabilities(head, z)
    onehot = own.astype(np.float64)
    return (p - onehot) / batch


def _head_grads(head: HeadKind, params: ModelParams, emb: np.ndarray,
                z: np.ndarray, g: np.ndarray) -> _HeadGradients:
    if head.is_distance:
        d = -z
        diff = emb[:, None, :] - params.head_weights.T[None, :, :]
        # subgradient 0 for the norm at zero distance
        unit = np.where(d[:, :, None] > 0.0,
                        diff / np.where(d == 0.0, 1.0, d)[:, :, None], 0.0)
        demb = -np.einsum("bk,bke->be", g, unit)
        dw = np.einsum("bk,bke->ek", g, unit)
        return _HeadGradients(weights=dw, biases=None, embedding=demb)
    dw = emb.T @ g
    db = g.sum(axis=0)
    demb = g @ params.head_weights.T
    return _HeadGradients(weights=dw, biases=db, embedding=demb)


def loss_and_grads(head: HeadKind, params: ModelParams, inputs,
                   labels) -> tuple[float, ModelParams]:
    """Forward pass, loss, and full parameter gradients in one call.

    Returns ``(loss, grads)`` with grads shaped like ``params``; convenient
    for the training loop and for finite-difference checks.
    """
    trace = forward(params, inputs)
    z = logits(head, params, trace.embedding)
    value = loss(head, z, labels)
    g = logit_gradient(head, z, labels)
    hg = _head_grads(head, params, trace.embedding, z, g)
    body = backward(params, trace, hg.embedding)
    return value, ModelParams(layers=body, head_weights=hg.weights, head_biases=hg.biases)


def predict(probs) -> tuple[np.ndarray, np.ndarray]:
    """Predicted label (argmax, ties to the lowest index) and its probability.

    One-vs-all confidences are the raw maximum sigmoid output; nothing is
    renormalized across classes.
    """
    p = _as_matrix(probs, "probs")
    labels_out = p.argmax(axis=1)
    return labels_out, p[np.arange(p.shape[0]), labels_out]
