"""Minimal dense feed-forward network with exact reverse-mode gradients.

The body is a stack of fully connected layers with ReLU between them; the raw
output of the last layer is the embedding consumed by the probability heads
(no trailing nonlinearity).  All arithmetic is float64, training is SGD with
momentum updated in place, and every operation is deterministic given its
inputs.

Parameters, gradients and optimizer velocity are each one contiguous float64
vector; the named tensors are views into it.  Models trained in lockstep keep
theirs as the rows of one array for the whole run, a ``ModelStack``; its body
layers are views over all rows, and each numpy call of a step works row by row.
"""

from __future__ import annotations

import bisect
import json
import math
from pathlib import Path

import numpy as np

CHECKPOINT_FORMAT = "ovabench-checkpoint-v1"


def _as_matrix(x, name: str = "inputs") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    return arr


def _as_labels(x, name: str = "labels") -> np.ndarray:
    arr = np.asarray(x)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
    if arr.dtype.kind == "u" and arr.size and arr.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{name} value {arr.max()} does not fit int64")
    return arr.astype(np.int64, copy=False)


def _freeze(value, **arrays) -> None:
    for name, arr in arrays.items():
        arr = np.array(arr)  # a copy: no write into the caller's array reaches ``value``
        arr.flags.writeable = False  # and a view of it, whose flag cannot be set back
        object.__setattr__(value, name, arr.view())


class Layout:
    """Names, shapes and offsets of a model's tensors in its flat vector, in
    checkpoint order: ``layers.{i}.weights``, ``layers.{i}.biases`` per body
    layer, ``head_weights``, then ``head_biases`` for affine heads.  Built
    once per model and shared by its parameters, gradients and velocity."""

    def __init__(self, layer_dims, num_classes: int, head_biases: bool):
        self.num_layers = len(layer_dims) - 1
        entries = []
        for i, (fan_in, fan_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
            entries += [(f"layers.{i}.weights", (fan_in, fan_out)),
                        (f"layers.{i}.biases", (fan_out,))]
        entries.append(("head_weights", (layer_dims[-1], num_classes)))
        if head_biases:
            entries.append(("head_biases", (num_classes,)))
        self.names, self.shapes = zip(*entries)
        self.offsets = (0, *np.cumsum([math.prod(s) for s in self.shapes]).tolist())
        self.size = self.offsets[-1]

    def locate(self, index: int) -> tuple[str, int]:
        """The tensor holding flat entry ``index``, and the entry's index in it."""
        t = bisect.bisect_right(self.offsets, index) - 1
        return self.names[t], index - self.offsets[t]

    def misfit(self, shapes: dict) -> tuple | None:
        """The first tensor, in layout order and then ``shapes``' order, whose shape in
        ``shapes`` (name -> shape) differs from its shape here, as (name, shape there,
        shape here) with "(none)" for an absent tensor; None if every shape fits."""
        want = dict(zip(self.names, self.shapes))
        for name in dict.fromkeys([*want, *shapes]):
            if shapes.get(name) != want.get(name):
                return name, shapes.get(name, "(none)"), want.get(name, "(none)")


class ModelParams:
    """Parameters (or gradients, or velocity) as one flat float64 vector.

    ``weights[i]`` [fan_in x fan_out] and ``biases[i]`` [fan_out] are body
    layer i.  ``head_weights`` is [embed_dim x K] with column j belonging to
    class j.  ``head_biases`` is a length-K vector for affine heads and None
    for distance heads, whose weight columns act as class centers instead.
    All of them, and ``tensors`` in layout order, are views into ``flat``.
    """

    def __init__(self, flat: np.ndarray, layout: Layout):
        self.flat, self.layout = flat, layout
        self.tensors = [flat[a:b].reshape(shape) for a, b, shape
                        in zip(layout.offsets, layout.offsets[1:], layout.shapes)]
        n = 2 * layout.num_layers
        self.weights, self.biases = self.tensors[0:n:2], self.tensors[1:n:2]
        self.head_weights, self.head_biases = (self.tensors[n:] + [None])[:2]

    @classmethod
    def zeros(cls, layout: Layout) -> "ModelParams":
        return cls(np.zeros(layout.size), layout)

    def validate(self, message: str = "non-finite values in {}") -> None:
        """Check that every entry is finite; ``message`` names the first tensor that is not."""
        finite = np.isfinite(self.flat)
        if not finite.all():
            raise ValueError(message.format(self.layout.locate(int(np.argmin(finite)))[0]))


class ModelStack:
    """Several models with one body, as one [models x widest layout] float64 array, zero
    past each model's own layout: their parameters, gradients or velocity.

    ``models[i]`` is model i's :class:`ModelParams`, a view of the start of row i.
    ``weights[l]`` [models x fan_in x fan_out] and ``biases[l]`` [models x fan_out] are
    views of body layer l of every model, so ``_forward``, ``_backward`` and ``_update``
    take a stack where they take one model and run each numpy call over all of them.
    """

    def __init__(self, flat: np.ndarray, layouts):
        self.flat, self.layouts = flat, list(layouts)
        self.models = [ModelParams(row[:layout.size], layout)
                       for row, layout in zip(flat, self.layouts)]
        n = 2 * self.layouts[0].num_layers
        if any(layout.shapes[:n] != self.layouts[0].shapes[:n] for layout in self.layouts):
            raise ValueError("the models of a stack must share their body layers")
        body = [flat[:, a:b].reshape(len(flat), *shape) for a, b, shape in zip(
            self.layouts[0].offsets, self.layouts[0].offsets[1:n + 1], self.layouts[0].shapes)]
        self.weights, self.biases = body[0::2], body[1::2]

    @classmethod
    def of(cls, models: list[ModelParams]) -> "ModelStack":
        """A stack holding a copy of each model's vector."""
        flat = np.zeros((len(models), max(m.layout.size for m in models)))
        for row, m in zip(flat, models):
            row[:m.layout.size] = m.flat
        return cls(flat, [m.layout for m in models])

    def zeros_like(self) -> "ModelStack":
        return ModelStack(np.zeros_like(self.flat), self.layouts)


def init_params(layer_dims: list[int], num_classes: int, *, head_biases: bool,
                head_init: str = "glorot", seed: int = 0) -> ModelParams:
    """Build a fresh parameter set from a seeded PRNG.

    Body weights are Glorot-uniform (+-sqrt(6 / (fan_in + fan_out))), biases
    zero.  ``head_init`` is "glorot" or "zeros"; distance heads conventionally
    start their class centers at zero.
    """
    if len(layer_dims) < 2:
        raise ValueError("layer_dims must list the input width and at least one layer")
    if head_init not in ("glorot", "zeros"):
        raise ValueError(f"unknown head_init {head_init!r}")
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    params = ModelParams.zeros(Layout(layer_dims, num_classes, head_biases))
    for w in params.weights:
        w[...] = glorot(*w.shape)
    if head_init == "glorot":
        params.head_weights[...] = glorot(*params.head_weights.shape)
    return params


def forward(params: ModelParams, inputs) -> list[np.ndarray]:
    """Run the body on a batch; return the input of each body layer, then the
    embedding, as backpropagation needs them.

    ReLU is applied between layers; the last layer's raw output is the
    embedding.
    """
    x = _as_matrix(inputs)
    if x.shape[0] < 1:
        raise ValueError("batch must contain at least one row")
    if x.shape[1] != params.weights[0].shape[0]:  # later layers chain by construction
        raise ValueError(f"layer 0: input width {x.shape[1]} does not match "
                         f"fan_in {params.weights[0].shape[0]}")
    return _forward(params, x)


def _forward(params, x: np.ndarray) -> list[np.ndarray]:  # unchecked; or over a ModelStack
    activations = [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = activations[-1] @ w
        z += b[..., None, :]
        activations.append(np.maximum(z, 0.0, out=z) if i < last else z)
    return activations


def backward(params: ModelParams, activations: list[np.ndarray], embedding_grad,
             grads: ModelParams) -> ModelParams:
    """Backpropagate an embedding gradient through the body, given the
    activations :func:`forward` returned.

    Writes the body layers' gradients into ``grads`` and returns it; head
    entries are left as they are.
    The caller's ``embedding_grad`` must already carry the loss reduction
    (e.g. 1/batch for a mean), so no extra averaging happens here.  The ReLU
    subgradient at exactly zero is zero.
    """
    g = _as_matrix(embedding_grad, "embedding_grad")
    if g.shape != activations[-1].shape:
        raise ValueError(f"embedding_grad shape {g.shape} does not match "
                         f"embedding shape {activations[-1].shape}")
    return _backward(params, activations, g, grads)


def _backward(params, activations: list, g, grads):  # unchecked; or over a ModelStack
    for i in range(len(params.weights) - 1, -1, -1):
        a_in = activations[i]
        np.matmul(a_in.swapaxes(-1, -2), g, out=grads.weights[i])
        g.sum(axis=-2, out=grads.biases[i])
        if i > 0:  # a_in = max(z, 0) is positive exactly where z is
            g = g @ params.weights[i].swapaxes(-1, -2)
            g *= a_in > 0.0
    return grads


@np.errstate(over="ignore", invalid="ignore")  # an overflowing update is refused below
def sgd_step(params: ModelParams, grads: ModelParams, velocity: ModelParams,
             learning_rate: float, momentum: float) -> None:
    """One momentum-SGD update of the whole vector, in place:
    v <- m*v - lr*g, p <- p + v.

    Refuses non-finite gradients before changing anything, and checks the updated
    parameters are finite, naming the offending tensor in either case without a numpy
    warning first; after that second refusal, ``params`` and ``velocity`` hold the update.
    """
    grads.validate("non-finite gradient for {}; update refused")
    _update(params, grads, velocity, learning_rate, momentum)
    params.validate("non-finite parameter {} after update")


def _update(params, grads, velocity, lr: float, momentum: float):  # unchecked; or stacks
    velocity.flat *= momentum
    velocity.flat -= lr * grads.flat
    params.flat += velocity.flat


def save_checkpoint(path, params: ModelParams, head: str, seed: int) -> None:
    """Write parameters to a JSON checkpoint that round-trips bitwise.

    Each tensor is stored as name, shape, and a row-major flat list; float
    values go through Python's shortest-repr serialization, which parses back
    to the identical double.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "head": head,
        "seed": int(seed),
        "tensors": [
            {"name": name, "shape": list(t.shape), "data": t.ravel().tolist()}
            for name, t in zip(params.layout.names, params.tensors)
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _tensor(entry) -> tuple[str, np.ndarray]:
    name = entry.get("name") if isinstance(entry, dict) else None
    shape, data = (entry.get("shape"), entry.get("data")) if name else (None, None)
    if not (isinstance(name, str) and isinstance(shape, list) and isinstance(data, list)
            and all(type(s) is int and s >= 0 for s in shape)
            and all(type(v) in (int, float) for v in data)):
        raise ValueError(f"entry {entry!r:.60} needs a name, shape (sizes) and data (numbers)")
    if len(data) != math.prod(shape):
        raise ValueError(f"entry {name!r}: {len(data)} values do not fill shape {shape}")
    try:
        values = np.array(data, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"entry {name!r}: a value is beyond the float range") from None
    return name, values.reshape(shape)


def load_checkpoint(path) -> tuple[ModelParams, str, int]:
    """Read a checkpoint back into (params, head string, seed).

    The entries must be exactly the tensors of the :class:`Layout` that the
    weight matrices imply, with head biases if and only if ``head_biases`` is
    present.  An unreadable or malformed file raises ValueError naming the
    file and, for a malformed one, the entry at fault.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read checkpoint {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format in {path}")
    try:
        if not (isinstance(doc.get("tensors"), list) and isinstance(doc.get("head"), str)
                and type(doc.get("seed")) is int):
            raise ValueError("needs a 'tensors' list, a string 'head' and an integer 'seed'")
        tensors = {}
        for name, values in map(_tensor, doc["tensors"]):
            if name in tensors:
                raise ValueError(f"entry {name!r} is repeated")
            tensors[name] = values
        shapes = {name: t.shape for name, t in tensors.items()}
        n = sum(f"layers.{i}.weights" in shapes or f"layers.{i}.biases" in shapes
                for i in range(len(shapes)))
        matrices = [f"layers.{i}.weights" for i in range(max(n, 1))] + ["head_weights"]
        for name in matrices:
            if len(shapes.get(name, ())) != 2:
                raise ValueError(f"entry {name!r} is missing" if name not in shapes else
                                 f"entry {name!r} must be a matrix, has shape {shapes[name]}")
        dims = [shapes[matrices[0]][0], *(shapes[name][1] for name in matrices[:-1])]
        layout = Layout(dims, shapes["head_weights"][1], "head_biases" in shapes)
        misfit = layout.misfit(shapes)
        if misfit:
            raise ValueError("entry {!r} has shape {}, expected {}".format(*misfit))
        flat = np.concatenate([tensors[name].ravel() for name in layout.names])
        params = ModelParams(flat, layout)
        params.validate()
    except ValueError as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc}") from None
    return params, doc["head"], doc["seed"]
