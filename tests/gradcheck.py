"""Finite-difference oracle for the analytic gradients, and a model built from
given tensors; shared by the tests."""

import numpy as np

from ovabench.nncore import Layout, ModelParams


def params_from_arrays(weights, biases, head_weights, head_biases=None) -> ModelParams:
    """A model holding copies of the given tensors, whose shapes must chain."""
    tensors = [t for pair in zip(weights, biases, strict=True) for t in pair] + [head_weights]
    tensors += [] if head_biases is None else [head_biases]
    layout = Layout([np.shape(weights[0])[0], *(np.shape(w)[1] for w in weights)],
                    np.shape(head_weights)[1], head_biases is not None)
    assert [np.shape(t) for t in tensors] == list(layout.shapes)
    return ModelParams(np.concatenate([np.ravel(t) for t in tensors], dtype=np.float64), layout)


def gradient_check(loss_fn, params: ModelParams, step: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` maps a ModelParams to ``(loss, grads)`` where ``grads`` has
    the same layout; only the loss is used for the numeric side.  Returns
    the worst relative error over all entries, with denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    analytic = loss_fn(params)[1].flat
    work = ModelParams(params.flat.copy(), params.layout)
    flat = work.flat
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        loss_plus = loss_fn(work)[0]
        flat[i] = orig - step
        loss_minus = loss_fn(work)[0]
        flat[i] = orig
        if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
            name, j = params.layout.locate(i)
            raise ValueError(f"non-finite loss while perturbing {name}[{j}]")
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
