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

import numpy as np

from .nncore import ModelParams, _as_matrix, backward, forward

# Probabilities entering the diverging one-vs-all log(1 - p) term are clamped
# into [PROB_CLAMP, 1 - PROB_CLAMP]; the term is unbounded as distance -> 0.
PROB_CLAMP = 1e-12

_LN2 = math.log(2.0)

# Distance logits are scored in blocks of rows whose difference tensor holds at
# most this many entries (1 MiB of float64), so scoring memory does not grow
# with the number of rows beyond the [rows x K] output.
DISTANCE_BLOCK_ENTRIES = 1 << 17


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
    y = y.astype(np.int64)
    num_classes = z.shape[1]
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
        out = np.empty((emb.shape[0], params.head_weights.shape[1]))
        rows = max(1, DISTANCE_BLOCK_ENTRIES // params.head_weights.size)
        for start in range(0, emb.shape[0], rows):
            diff = emb[start:start + rows, None, :] - params.head_weights.T[None, :, :]
            out[start:start + rows] = -np.sqrt(np.einsum("bke,bke->bk", diff, diff))
        return out
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
    y = _check_labels(labels, z)
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
    y = _check_labels(labels, z)
    batch = z.shape[0]
    rows = np.arange(batch)
    own = np.zeros(z.shape, dtype=bool)
    own[rows, y] = True
    if head is HeadKind.OVA_DISTANCE:
        d = -z
        clamped = np.tanh(0.5 * d) <= PROB_CLAMP
        safe_d = np.where(clamped, 1.0, d)
        with np.errstate(over="ignore"):
            grad_d = np.where(clamped, 0.0, -1.0 / np.sinh(safe_d))
        grad_d[own] = _sigmoid(d[own])
        return -grad_d / batch
    return (probabilities(head, z) - own) / batch


def _head_grads(head: HeadKind, params: ModelParams, emb: np.ndarray,
                z: np.ndarray, g: np.ndarray, grads: ModelParams) -> np.ndarray:
    """Write the head's gradients into ``grads``; return the embedding's."""
    if head.is_distance:
        d = -z
        diff = emb[:, None, :] - params.head_weights.T[None, :, :]
        # subgradient 0 for the norm at zero distance
        unit = np.divide(diff, d[:, :, None], out=np.zeros_like(diff),
                         where=d[:, :, None] > 0.0)
        grads.head_weights[...] = np.einsum("bk,bke->ek", g, unit)
        return -np.einsum("bk,bke->be", g, unit)
    np.matmul(emb.T, g, out=grads.head_weights)
    g.sum(axis=0, out=grads.head_biases)
    return g @ params.head_weights.T


def loss_and_grads(head: HeadKind, params: ModelParams, inputs,
                   labels) -> tuple[float, ModelParams]:
    """Forward pass, loss, and full parameter gradients in one call.

    Returns ``(loss, grads)``, grads one vector in the layout of ``params``;
    convenient for the training loop and for finite-difference checks.
    """
    activations = forward(params, inputs)
    emb = activations[-1]
    z = logits(head, params, emb)
    value = loss(head, z, labels)
    g = logit_gradient(head, z, labels)
    grads = ModelParams.zeros(params.layout)
    backward(params, activations, _head_grads(head, params, emb, z, g, grads), grads)
    return value, grads


def predict(probs) -> tuple[np.ndarray, np.ndarray]:
    """Predicted label (argmax, ties to the lowest index) and its probability.

    One-vs-all confidences are the raw maximum sigmoid output; nothing is
    renormalized across classes.
    """
    p = _as_matrix(probs, "probs")
    labels_out = p.argmax(axis=1)
    return labels_out, p[np.arange(p.shape[0]), labels_out]
