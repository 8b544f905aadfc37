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
from functools import cache, cached_property

import numpy as np

from .nncore import (ModelParams, ModelStack, _as_labels, _as_matrix, _backward, _forward,
                     _update, backward, forward)

# Probabilities entering the diverging one-vs-all log(1 - p) term are clamped
# into [PROB_CLAMP, 1 - PROB_CLAMP]; the term is unbounded as distance -> 0.
PROB_CLAMP = 1e-12

_LN2 = math.log(2.0)

# Distance logits are scored in row blocks whose difference tensor holds at most
# this many entries (1 MiB of float64), so scoring memory stays bounded.
DISTANCE_BLOCK_ENTRIES = 1 << 17
# ... or in tiles of at most this many [class x row] sums and classes, with long passes.
DISTANCE_TILE_ENTRIES, DISTANCE_TILE_CLASSES = 1 << 16, 12


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


def _sigmoid(z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + t) where z >= 0 and t / (1 + t) below, with t = e^-|z|, overwritten if given."""
    if t is None:
        t = np.abs(z)
        np.exp(np.negative(t, out=t), out=t)
    out = t.copy()
    np.copyto(out, 1.0, where=z >= 0)
    t += 1.0
    return np.divide(out, t, out=out)


def _distances(w: np.ndarray, emb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances [rows x K] from embeddings to class centers ``w``'s columns, and the
    differences they sum as a [rows x K x embed] view of a [rows x embed*K] array with entry
    ``e*K + k``, built in two long passes.  The view has the strides of the broadcast
    ``emb[:, None, :] - W.T[None]``, and einsum orders its sums by its operands' strides."""
    k = w.shape[1]
    diff = np.repeat(emb, k, axis=1)
    diff -= w.reshape(-1)
    by_class = diff.reshape(diff.shape[0], -1, k).transpose(0, 2, 1)
    d = np.einsum("bke,bke->bk", by_class, by_class)
    return np.sqrt(d, out=d), by_class


def _distance_logits(w: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """-``_distances``, each summed as ((0 + x0²) + x1²) + ... one embedding column at a time
    in [classes x rows] tiles: einsum's bits where it fuses no multiply and add."""
    out = np.empty((emb.shape[0], w.shape[1]))
    rows = DISTANCE_TILE_ENTRIES // min(w.shape[1], DISTANCE_TILE_CLASSES)
    emb_all = np.empty((emb.shape[1], min(rows, emb.shape[0])))  # tiles slice these two buffers
    sums = np.empty((2, min(w.shape[1], DISTANCE_TILE_CLASSES), emb_all.shape[1]))
    for start in range(0, emb.shape[0], rows):
        emb_t = emb_all[:, :min(rows, emb.shape[0] - start)]
        np.copyto(emb_t, emb[start:start + rows].T)
        for c in range(0, w.shape[1], DISTANCE_TILE_CLASSES):
            w_c = w[:, c:c + DISTANCE_TILE_CLASSES, None]
            total, diff = sums[:, :w_c.shape[1], :emb_t.shape[1]]
            total.fill(0.0)
            for e, w_e in enumerate(w_c):
                np.square(np.subtract(emb_t[e], w_e, out=diff), out=diff)
                np.add(diff, total, out=total)  # the product first, as in einsum's a*b + c
            out[start:start + rows, c:c + DISTANCE_TILE_CLASSES] = np.sqrt(total, out=total).T
    return np.negative(out, out=out)


@cache
def _embedding_order_exact() -> bool:
    """Whether ``_distance_logits`` has a training step's bits here, tried once on a fixed
    probe: it has where einsum rounds each product before its add (numpy's x86-64 baseline)."""
    w, emb = map(np.random.default_rng(0).standard_normal, [(16, 37), (64, 16)])
    return _distance_logits(w, emb).tobytes() == (-_distances(w, emb)[0]).tobytes()


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
        w = params.head_weights
        if w.shape[1] > 1 and _embedding_order_exact():  # for K=1, einsum sums along e
            return _distance_logits(w, emb)
        out = np.empty((emb.shape[0], w.shape[1]))
        rows = max(1, DISTANCE_BLOCK_ENTRIES // w.size)
        for start in range(0, emb.shape[0], rows):
            out[start:start + rows] = -_distances(w, emb[start:start + rows])[0]
        return out
    z = emb @ params.head_weights
    return np.add(z, params.head_biases, out=z)


def _row_max(z: np.ndarray) -> np.ndarray:
    """Each row's maximum as a column, in long passes; a zero's sign never reaches a result."""
    return np.ascontiguousarray(z.T).max(axis=0)[:, None]


def _checked_logits(head: HeadKind, logits_) -> np.ndarray:
    """``logits_`` as a matrix, refused if any is positive for the one-vs-all distance head."""
    z = _as_matrix(logits_, "logits")
    if head is HeadKind.OVA_DISTANCE and (z > 0).any():
        raise ValueError("positive logit for distance head at batch index "
                         f"{int(np.argmax((z > 0).any(axis=1)))}; distance logits must be <= 0")
    return z


@np.errstate(over="ignore")  # a logit more than the double range below its row's max gives 0
def probabilities(head: HeadKind, logits_) -> np.ndarray:
    """Map logits to per-class probabilities [batch x K].

    Softmax heads normalize row-wise (max-subtracted for stability); the
    one-vs-all affine head applies independent sigmoids, and the one-vs-all
    distance head applies 2*sigmoid so that logit 0 (distance 0) gives
    probability exactly 1.  One-vs-all rows do not sum to 1.
    """
    z = _checked_logits(head, logits_)
    if head.is_ova:
        p = _sigmoid(z)
        return np.multiply(p, 2.0, out=p) if head is HeadKind.OVA_DISTANCE else p
    e = z - _row_max(z)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=1, keepdims=True), out=e)


@np.errstate(over="ignore", divide="ignore")  # ova_dm's -1/sinh(d): 0 is clamped, inf gives 0
def _loss_and_logit_gradient(head: HeadKind, z: np.ndarray, labels,
                             gradient: bool = True) -> tuple[float, np.ndarray]:
    """Mean loss of the logits ``z`` and, with ``gradient``, its gradient w.r.t. ``z``, else
    ``predict``'s labels: ``_loss_terms`` after one label check, refusing a non-finite loss."""
    if not z.shape[0]:  # the mean would divide by zero
        raise ValueError("batch must contain at least one row")
    y = _as_labels(labels)
    if y.ndim != 1:
        raise ValueError("labels must be a vector")
    if y.shape[0] != z.shape[0]:
        raise ValueError("labels length does not match batch size")
    k = z.shape[1]
    if y.size and y.view(np.uint64).max() >= k:  # a negative label wraps above k
        bad = int(np.argmax((y < 0) | (y >= k)))
        raise ValueError(f"label {y[bad]} at index {bad} outside [0, {k})")
    value, out, per_example = _loss_terms(head, z, np.arange(0, z.size, k) + y, gradient)
    # No term is -inf: each sums non-negative pieces (softplus, or log-sum-exp less the
    # label's logit).  So an inf or NaN term, or finite terms that overflow, end here.
    if not math.isfinite(value):
        bad = ~np.isfinite(per_example)
        raise ValueError(f"non-finite loss for batch index {int(np.argmax(bad))}"
                         if bad.any() else "non-finite mean loss")
    return value, out


def _loss_terms(head: HeadKind, z: np.ndarray, own: np.ndarray, gradient: bool = True):
    """``_loss_and_logit_gradient`` unchecked, and the per-example losses, for labels at flat
    indices ``own`` of ``z``.  The gradient is (p - onehot)/batch, but for ova_dm, in d = -z:
    sigmoid(d) for the label class and -1/sinh(d) for the rest, zeroed where the clamp acts."""
    if head is HeadKind.OVA_DISTANCE:
        d = -z
        d_own = d.take(own)
        t_own = np.exp(-np.abs(d_own))
        # -log p = softplus(d) - ln 2;  1 - p = (e^d - 1)/(e^d + 1) = tanh(d/2)
        one_minus_p = np.tanh(0.5 * d)
        neg_all = -np.log(np.maximum(one_minus_p, PROB_CLAMP))
        per_example = (np.maximum(d_own, 0.0) + np.log1p(t_own) - _LN2 + neg_all.sum(axis=1)
                       - neg_all.take(own))
    elif head.is_ova:
        t = np.exp(-np.abs(z))  # softplus(z) = max(z, 0) + log1p(t); softplus(-z) shares it
        log1p_t = np.log1p(t)
        sp_pos = np.maximum(z, 0.0) + log1p_t
        per_example = (np.maximum(-z.take(own), 0.0) + log1p_t.take(own) + sp_pos.sum(axis=1)
                       - sp_pos.take(own))
    else:
        m = _row_max(z)
        e = np.exp(z - m)
        e_sum = e.sum(axis=1, keepdims=True)
        per_example = (m + np.log(e_sum))[:, 0] - z.take(own)
    value = float(np.add.reduce(per_example) / z.shape[0])  # np.mean's sum and division
    if head is HeadKind.OVA_DISTANCE and gradient:
        grad_d = -1.0 / np.sinh(d)
        grad_d[one_minus_p <= PROB_CLAMP] = 0.0
        grad_d.put(own, _sigmoid(d_own, t_own))
        grad_d /= -z.shape[0]  # the same bits as -grad_d / batch
        return value, grad_d, per_example
    if head.is_ova:  # ova_dm's probabilities are 2p, whose argmax is p's: doubling is exact
        p = _sigmoid(z) if head.is_distance else _sigmoid(z, t)
    else:
        p = np.divide(e, e_sum, out=e)
    if not gradient:
        return value, p.argmax(axis=1), per_example
    p.put(own, p.take(own) - 1.0)
    p /= z.shape[0]
    return value, p, per_example


def loss(head: HeadKind, logits_, labels) -> float:
    """Mean negative log-likelihood of the labels under the head.

    Softmax heads use log-sum-exp; one-vs-all heads sum K binary terms,
    -log p for the label class and -log(1 - p) for the rest, in stable
    closed forms.  Raises if any per-example loss is non-finite, carrying
    the batch index, or if their mean is, without a numpy warning first, and
    refuses positive one-vs-all distance logits as ``probabilities`` does.
    """
    return loss_and_predicted(head, logits_, labels)[0]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite loss is refused
def loss_and_predicted(head: HeadKind, logits_, labels) -> tuple[float, np.ndarray]:
    """``loss``, and ``predict``'s labels of ``probabilities``, from one pass over the logits."""
    return _loss_and_logit_gradient(head, _checked_logits(head, logits_), labels, False)


@np.errstate(all="ignore")  # overflow shows as a non-finite loss, refused
def loss_and_grads(head: HeadKind, params: ModelParams, inputs, labels,
                   grads: ModelParams) -> tuple[float, ModelParams]:
    """Forward pass, loss, and full parameter gradients in one call.

    Overwrites every entry of ``grads``, a vector in the layout of ``params``,
    and returns ``(loss, grads)``, so a training loop can reuse one buffer.
    A non-finite loss is refused, naming the batch index, without a numpy
    warning first.
    """
    activations = forward(params, inputs)
    _check_head_params(head, params)
    value, emb_grad = _head_grads(head, params, activations[-1], grads,
                                  lambda z: _loss_and_logit_gradient(head, z, labels))
    backward(params, activations, emb_grad, grads)
    return value, grads


def _head_grads(head: HeadKind, params: ModelParams, emb, grads: ModelParams, loss_fn,
                out: np.ndarray | None = None):
    """``loss_fn``'s loss of ``emb``'s logits and d/d``emb``, written into ``out`` if given;
    head gradients go to ``grads``."""
    if head.is_distance:
        d, unit = _distances(params.head_weights, emb)
        value, g = loss_fn(-d)
        unit /= d[:, :, None]
        if not d.all():  # subgradient 0 for the norm at zero distance
            unit[d == 0.0] = 0.0
        grads.head_weights[...] = np.einsum("bk,bke->ek", g, unit)
        emb_grad = np.einsum("bk,bke->be", g, unit, out=out)
        return value, np.negative(emb_grad, out=emb_grad)
    value, g = loss_fn(emb @ params.head_weights + params.head_biases)
    np.matmul(emb.T, g, out=grads.head_weights)
    g.sum(axis=0, out=grads.head_biases)
    return value, np.matmul(g, params.head_weights.T, out=out)


def _stacked_step(heads: tuple[HeadKind, ...], params: ModelStack, x: np.ndarray, own: np.ndarray,
                  grads: ModelStack, velocity: ModelStack, lr: float,
                  momentum: float) -> list[float]:
    """``loss_and_grads`` then ``sgd_step``, unchecked, for each model of ``params`` with its
    head, on its batch ``x[i]`` with labels at flat indices ``own[i]``: one body pass over
    the leading model axis, each head on its slice of the embedding, and one update."""
    acts = _forward(params, x)
    g = np.empty_like(acts[-1])
    values = [_head_grads(head, model, emb, grad, lambda z: _loss_terms(head, z, o)[:2], out)[0]
              for head, model, emb, grad, o, out
              in zip(heads, params.models, acts[-1], grads.models, own, g)]
    _backward(params, acts, g, grads)
    _update(params, grads, velocity, lr, momentum)
    return values


def predict(probs) -> tuple[np.ndarray, np.ndarray]:
    """Predicted label (argmax, ties to the lowest index) and its probability.

    One-vs-all confidences are the raw maximum sigmoid output; nothing is
    renormalized across classes.
    """
    p = _as_matrix(probs, "probs")
    labels_out = p.argmax(axis=1)
    return labels_out, p[np.arange(p.shape[0]), labels_out]
