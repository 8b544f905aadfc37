"""Experiment driver: trains each head, sweeps corruptions, maps confidence
landscapes, and persists every artifact as machine-readable files.

All randomness flows from one experiment seed through named sub-seeds, so a
rerun with the same config reproduces every artifact byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import operator
import sys
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import data as datamod
from . import heads as headsmod
from . import metrics as metricsmod
from .data import Dataset
from .heads import HeadKind
from .ioutil import write_csv, write_json
from .metrics import Predictions, boxplot_stats
from .nncore import (ModelParams, ModelStack, forward, init_params, save_checkpoint,
                     sgd_step)

LOG_EVERY = 100

# Training draws the batch indices of a block of steps in one call, at most this
# many indices, and gathers the block's rows at once (3 MiB for 2-D features).
BATCH_BLOCK_ENTRIES = 1 << 17


class TrainingDiverged(ValueError):
    """Raised when a training step's loss, update or log evaluation is not finite."""


class NonFiniteModel(ValueError):
    """Raised when a trained model's logits overflow on an input row."""


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit sub-seed for a named consumer of the experiment seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# A config rule: its test of one value against the rule's argument, and its wording.
_RULES = {"gt": (operator.gt, "> {!r}"), "ge": (operator.ge, ">= {!r}"),
          "lt": (operator.lt, "< {!r}"), "le": (operator.le, "<= {!r}"),
          "choices": (lambda value, choices: value in choices, "in {!r}")}


def _field(default, **rules):
    """A config field's default and the ``_RULES`` its value keeps; on a list they hold for
    each item, the list is non-empty and ``distinct=True`` forbids repeats.  Upper bounds hold
    for each field alone (a size numpy cannot allocate, coordinates whose squares overflow),
    not their product: a ``dm`` step at hidden [4096], K 1000, batch 128 asks for 3.91 GiB."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=rules)
    return field(default=default, metadata=rules)


@dataclass
class DataConfig:
    num_classes: int = _field(10, ge=2, le=1000)
    n_per_class: int = _field(1000, ge=1, le=100000)
    radius: float = _field(20.0, gt=0, le=10**6)
    variance: float = _field(2.0, gt=0, le=10**6)
    angle_formula: str = _field("ring", choices=["ring", "literal"])
    train_fraction: float = _field(0.5, gt=0, le=1)

    @property
    def train_per_class(self) -> int:
        """Training rows per class: the split's floor (all of them at train_fraction 1.0)."""
        return math.floor(self.train_fraction * self.n_per_class)


@dataclass
class ModelConfig:
    hidden: list[int] = _field([16, 16], ge=1, le=4096)
    distance_init: str = _field("zeros", choices=["zeros", "random"])


@dataclass
class OptimConfig:
    learning_rate: float = _field(0.01, gt=0)
    momentum: float = _field(0.9, ge=0, lt=1)
    batch_size: int = _field(128, ge=1, le=100000)
    steps: int = _field(10000, ge=0, le=10000000)


@dataclass
class SweepConfig:
    kinds: list[str] = _field(["gaussian_noise", "rotation"], distinct=True,
                              choices=list(datamod.CORRUPTION_KINDS))
    intensities: list[int] = _field([1, 2, 3, 4, 5], distinct=True, ge=1, le=5)


@dataclass
class OodConfig:
    n: int | None = _field(None, ge=1, le=1000000)  # None: match the test-set size
    box_halfwidth: float = _field(50.0, gt=0, le=10**6)
    exclusion_radius: float = _field(8.0, ge=0, le=10**6)


@dataclass
class MetricConfig:
    num_bins: int = _field(15, ge=1, le=10000)
    num_thresholds: int = _field(101, ge=2, le=100000)


@dataclass
class LandscapeConfig:
    half_extent: float = _field(50.0, gt=0, le=10**6)
    resolution: int = _field(200, ge=2, le=1000)


@dataclass
class ExperimentConfig:
    """The experiment: seven sections and the seed.  Head and output path are flags."""

    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    ood: OodConfig = field(default_factory=OodConfig)
    metrics: MetricConfig = field(default_factory=MetricConfig)
    landscape: LandscapeConfig = field(default_factory=LandscapeConfig)
    seed: int = 0

    def validate(self) -> None:
        """Check each field's annotated type, then its rules, then that the split
        leaves a training row; an error names ``section.field`` and its value."""
        for s in fields(self):
            section = getattr(self, s.name)
            if s.name != "seed" and not isinstance(section, s.default_factory):
                raise ValueError(f"{s.name} must be {s.type}, got {section!r:.60}")
            entries = ([("seed", section, s)] if s.name == "seed" else
                       [(f"{s.name}.{f.name}", getattr(section, f.name), f)
                        for f in fields(section)])
            for where, value, f in entries:
                kind = f.type.removesuffix(" | None")
                null = "" if kind == f.type else " or null"
                if value is None and null:
                    continue
                if not _has_type(value, kind):
                    raise ValueError(f"{where} must be {f.type}"
                                     f"{' (finite)' if kind == 'float' else ''}, "
                                     f"got {value!r:.60}")
                rule = _broken_rule(value, f.metadata)
                if rule:
                    raise ValueError(f"{where} must be {rule}{null}, got {value!r:.60}")
        d = self.data
        if d.train_per_class < 1:
            raise ValueError(f"data.train_fraction {d.train_fraction!r} of data.n_per_class "
                             f"{d.n_per_class!r} leaves no training row per class")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build and validate a config; an unknown section or key raises ValueError."""
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        raw = dict(raw)
        sections = {f.name: f.default_factory for f in fields(cls) if f.name != "seed"}
        kwargs = {"seed": raw.pop("seed", 0)}
        for name, section_cls in sections.items():
            section = raw.pop(name, {})
            if not isinstance(section, dict):
                raise ValueError(f"config section {name!r} must be a JSON object")
            unknown = set(section) - {f.name for f in fields(section_cls)}
            if unknown:
                raise ValueError(f"unknown keys in config section {name!r}: "
                                 f"{sorted(unknown)!r:.60}")
            kwargs[name] = section_cls(**section)
        if raw:
            raise ValueError(f"unknown config keys: {sorted(raw)!r:.60}")
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _has_type(value, kind: str) -> bool:
    """bool is not an int, a float is finite (so is an int given for one), and
    a list is checked item by item."""
    if kind.startswith("list["):
        return isinstance(value, list) and all(_has_type(v, kind[5:-1]) for v in value)
    return type(value) in _FIELD_TYPES[kind] and (
        kind != "float" or abs(value) <= sys.float_info.max)


def _broken_rule(value, rules) -> str | None:
    """The wording of the first of a field's rules that ``value`` breaks."""
    items = value if isinstance(value, list) else [value]
    if not items:
        return "a non-empty list"
    if rules.get("distinct") and len(set(items)) < len(items):
        return "a list of distinct items"
    for name, arg in rules.items():
        if name in _RULES and not all(_RULES[name][0](v, arg) for v in items):
            rule = _RULES[name][1].format(arg)
            return f"a list of items {rule}" if isinstance(value, list) else rule


@dataclass
class TrainResult:
    params: ModelParams
    log: dict[str, list]  # the train_log.csv columns: step, loss, accuracy
    final_accuracy: float


def _embed(params: ModelParams, head: HeadKind, features,
           rows: str) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings and logits for each row of ``features``.  A model that
    overflows on a row (a non-finite embedding gives non-finite logits) is
    refused without warnings, naming what the rows are and the first bad one."""
    with np.errstate(all="ignore"):
        emb = forward(params, features)[-1]
        z = headsmod.logits(head, params, emb)
    if not np.isfinite(z).all():  # one pass; the per-row pass only to name the row
        i = int(np.argmin(np.isfinite(z).all(axis=1)))
        raise NonFiniteModel(f"the model's logits are not finite for {rows} {i} "
                             f"(input {features[i].tolist()})")
    return emb, z


class PredictionRecord(NamedTuple):
    """One scored example as a row; nothing in the package reads these rows.

    ``_score`` builds one per example only because ``bench/`` counts calls to
    ``harness.PredictionRecord`` as ``metrics.records_built`` and its tests pin
    that count. Delete this class together with that metric.
    """

    confidence: float
    predicted_label: int
    true_label: int
    is_ood: bool


def _score(params: ModelParams, head: HeadKind, features, labels, rows: str) -> Predictions:
    """Predictions for ``features``; OOD rows when ``labels`` is None."""
    pred, conf = headsmod.predict(headsmod.probabilities(
        head, _embed(params, head, features, rows)[1]))  # no logits outlive the call
    preds = Predictions.from_scores(conf, pred, labels)
    deque(map(PredictionRecord, conf.tolist(), pred.tolist(), preds.true_label.tolist(),
              preds.is_ood.tolist()), maxlen=0)
    return preds


def make_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset, np.ndarray]:
    """Generate the (train, test, ood) triple the experiment shares across heads.

    With train_fraction = 1.0 the full dataset plays both roles.  All three are read-only.
    """
    config.validate()
    d = config.data
    full = datamod.gen_ring(d.num_classes, d.n_per_class, d.radius, d.variance,
                            seed=derive_seed(config.seed, "data"),
                            angle_formula=d.angle_formula)
    if d.train_fraction < 1.0:
        train_d, test_d = datamod.split(full, d.train_fraction,
                                        seed=derive_seed(config.seed, "split"))
    else:
        train_d = test_d = full
    means = datamod.ring_class_means(d.num_classes, d.radius, d.angle_formula)
    n_ood = config.ood.n if config.ood.n is not None else len(test_d)
    try:
        ood_points = datamod.gen_ood(n_ood, means, seed=derive_seed(config.seed, "ood"),
                                     box_halfwidth=config.ood.box_halfwidth,
                                     exclusion_radius=config.ood.exclusion_radius)
    except ValueError as exc:  # data knows no config names; name the fields to change
        raise ValueError(f"ood.exclusion_radius {config.ood.exclusion_radius!r} with "
                         f"ood.box_halfwidth {config.ood.box_halfwidth!r}: {exc}") from exc
    ood_points.flags.writeable = False
    return train_d, test_d, ood_points


def train(config: ExperimentConfig, head: HeadKind | tuple[HeadKind, ...],
          train_data: Dataset) -> TrainResult | list[TrainResult | TrainingDiverged]:
    """Mini-batch SGD for the configured number of steps; writes no file.

    Batches are sampled with replacement from a seeded PRNG; loss and train
    accuracy are logged every 100 steps.  Aborts with step index and head
    kind if a batch loss, an update or a log evaluation is not finite, checking
    each log interval once, replaying one that diverged.

    Given a tuple of heads, trains them in lockstep, each with the bits it has
    alone, and returns a ``TrainResult`` or ``TrainingDiverged`` per head: a
    head that diverged leaves the stack and the others go on.
    """
    config.validate()
    if train_data.num_classes != config.data.num_classes:
        raise ValueError("dataset class count does not match the config")
    group = head if isinstance(head, tuple) else (head,)
    x, y = train_data.features, train_data.labels
    k, zeros = config.data.num_classes, config.model.distance_init == "zeros"
    params = ModelStack.of([init_params([x.shape[1], *config.model.hidden], k,
                                        head_biases=h.uses_biases,
                                        head_init="zeros" if h.is_distance and zeros else "glorot",
                                        seed=derive_seed(config.seed, f"init:{h.value}"))
                            for h in group])
    velocity, grads = params.zeros_like(), params.zeros_like()
    rngs = [np.random.default_rng(derive_seed(config.seed, f"train:{h.value}")) for h in group]
    steps, batch = config.optim.steps, config.optim.batch_size
    lr, momentum = config.optim.learning_rate, config.optim.momentum
    block = max(1, BATCH_BLOCK_ENTRIES // (batch * len(group)))
    row_starts = np.arange(0, batch * k, k)
    live = list(range(len(group)))  # the group index of each row of the stacks
    logs = [{"step": [], "loss": [], "accuracy": []} for _ in group]
    failed: dict[int, TrainingDiverged] = {}

    def full_eval(h, model):
        value, pred = headsmod.loss_and_predicted(
            group[h], _embed(model, group[h], x, "training row")[1], y)
        return value, float((pred == y).mean())

    # Per step, the batch of each row of the stacks.  One draw per block and head gives the
    # stream of one draw per step (PCG64), and a block gathers at most BATCH_BLOCK_ENTRIES rows.
    def batches():
        for first in range(1, steps + 1, block):
            rows = live.copy()
            idx = np.stack([rngs[h].integers(0, len(x), size=(min(block, steps + 1 - first),
                                                                batch)) for h in rows], axis=1)
            xb, yb = x[idx], y[idx]
            for c in range(len(idx)):
                if rows != live:  # a head left the stacks: its rows of the block go too
                    keep = [rows.index(h) for h in live]
                    xb, yb, rows = xb[:, keep], yb[:, keep], live.copy()
                yield xb[c], yb[c]

    stream = batches()
    for first in range(1, steps + 1, LOG_EVERY):
        interval = [next(stream) for _ in range(min(LOG_EVERY, steps + 1 - first))]
        heads = [group[h] for h in live]
        saved, totals = (params.flat.copy(), velocity.flat.copy()), [0.0] * len(live)
        with np.errstate(all="ignore"):
            for xs, ys in interval[:-1]:
                totals = list(map(operator.add, totals, headsmod._stacked_step(
                    heads, params, xs, row_starts + ys, grads, velocity, lr, momentum)))
        # a non-finite loss shows in a head's sum, a non-finite gradient (lr > 0) in its row
        diverged = ~(np.isfinite(totals) & np.isfinite(params.flat).all(axis=1))
        for r, h in enumerate(live):
            model, grad, vel = params.models[r], grads.models[r], velocity.models[r]
            if diverged[r]:  # the replay alone refuses the row's first such step
                params.flat[r], velocity.flat[r] = saved[0][r], saved[1][r]
            try:
                for step, (xs, ys) in list(enumerate(interval, first))[0 if diverged[r] else -1:]:
                    headsmod.loss_and_grads(group[h], model, xs[r], ys[r], grad)
                    sgd_step(model, grad, vel, lr, momentum)
                    if step % LOG_EVERY == 0 or step == steps:
                        for column, value in zip(logs[h].values(), (step, *full_eval(h, model))):
                            column.append(value)
            except ValueError as exc:
                failed[h] = TrainingDiverged(f"training diverged at step {step} "
                                             f"for head '{group[h].value}': {exc}")
                failed[h].__cause__ = exc
        keep = [r for r, h in enumerate(live) if h not in failed]
        if not keep:
            break
        if len(keep) < len(live):
            params, grads, velocity = params.rows(keep), grads.rows(keep), velocity.rows(keep)
            live[:] = [live[r] for r in keep]
    results = []
    for h in range(len(group)):
        if h in failed:
            results.append(failed[h])
            continue
        model = params.models[live.index(h)]
        model = ModelParams(model.flat.copy(), model.layout)
        final_accuracy = logs[h]["accuracy"][-1] if logs[h]["step"] else full_eval(h, model)[1]
        results.append(TrainResult(params=model, log=logs[h], final_accuracy=final_accuracy))
    if isinstance(head, tuple):
        return results
    if isinstance(results[0], TrainingDiverged):
        raise results[0]
    return results[0]


def evaluate(params: ModelParams, head: HeadKind, test_data: Dataset,
             ood_points, config: ExperimentConfig, out_dir) -> dict:
    """Score the test set and the OOD points; returns the metrics.json summary.

    Writes predictions.csv, calibration.csv, curve.csv, histograms.csv and
    metrics.json into ``out_dir``.
    """
    config.validate()
    id_preds = _score(params, head, test_data.features, test_data.labels, "test row")
    preds = Predictions.concatenate([id_preds, _score(params, head, ood_points, None, "OOD row")])
    ece_value, calibration = metricsmod.ece(id_preds, config.metrics.num_bins)
    auroc, auprc = metricsmod.auroc_auprc(preds.confidence, ~preds.is_ood)
    summary = {
        "head": head.value,
        "accuracy": float(np.mean(id_preds.is_correct)),
        "ece": ece_value,
        "num_bins": config.metrics.num_bins,
        "counts": {"id": len(id_preds), "ood": len(ood_points)},
        "auroc": auroc,
        "auprc": auprc,
    }

    out = Path(out_dir)
    metricsmod.write_predictions(out / "predictions.csv", preds)
    write_csv(out / "calibration.csv", calibration)
    thresholds = np.linspace(0.0, 1.0, config.metrics.num_thresholds)
    write_csv(out / "curve.csv", metricsmod.accuracy_vs_confidence(preds, thresholds))
    write_csv(out / "histograms.csv",
              metricsmod.confidence_histograms(preds, config.metrics.num_bins))
    write_json(out / "metrics.json", summary)
    return summary


def shift_sweep(params: ModelParams, head: HeadKind, base_test: Dataset,
                config: ExperimentConfig, out_dir) -> dict[str, list]:
    """Accuracy and ECE per corruption: the sweep.csv columns ``kind,
    intensity, accuracy, ece``, written into ``out_dir`` and returned.

    The intensity-0 row holds the clean test result.  The per-intensity
    box-plot stats go to sweep_stats.csv, and every corrupted prediction set
    is dumped under shift/ so each row can be recomputed from files alone.
    """
    config.validate()
    out = Path(out_dir)
    columns: dict[str, list] = {"kind": [], "intensity": [], "accuracy": [], "ece": []}
    cases = [(k, i) for k in config.sweep.kinds for i in config.sweep.intensities]
    for kind, intensity in [("none", 0), *cases]:
        dataset = base_test if kind == "none" else datamod.corrupt(
            base_test, kind, intensity, derive_seed(config.seed, f"corrupt:{kind}:{intensity}"))
        preds = _score(params, head, dataset.features, dataset.labels, "test row")
        ece_value, _ = metricsmod.ece(preds, config.metrics.num_bins)
        accuracy = float(np.mean(preds.is_correct))
        for column, value in zip(columns.values(), (kind, intensity, accuracy, ece_value)):
            column.append(value)
        (out / "shift").mkdir(exist_ok=True)  # only after a row scored: a refusal leaves none
        metricsmod.write_predictions(out / "shift" / f"predictions_{kind}_{intensity}.csv", preds)

    write_csv(out / "sweep.csv", columns)
    intensities = np.asarray(columns["intensity"])
    rows = [{"intensity": i, "metric": m,
             **boxplot_stats(np.asarray(columns[m])[intensities == i])}
            for i in config.sweep.intensities for m in ("accuracy", "ece")]
    write_csv(out / "sweep_stats.csv", {key: [row[key] for row in rows] for key in rows[0]})
    return columns


def landscape(params: ModelParams, head: HeadKind,
              config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Confidence and predicted label over a square grid of 2D inputs, as the
    landscape.csv columns ``x, y, confidence, label``, row by row from ymax."""
    config.validate()
    res = config.landscape.resolution
    h = config.landscape.half_extent
    xx, yy = np.meshgrid(np.linspace(-h, h, res), np.linspace(h, -h, res))
    x, y = xx.ravel(), yy.ravel()
    pred, conf = headsmod.predict(headsmod.probabilities(
        head, _embed(params, head, np.column_stack((x, y)), "grid point")[1]))
    return {"x": x, "y": y, "confidence": conf, "label": pred}


def write_landscape_csv(path, columns: dict[str, np.ndarray]) -> None:
    write_csv(path, columns)


def write_landscape_pgm(path, confidence: np.ndarray) -> None:
    """Binary P5 image of a [rows x cols] confidence grid on 0..255, row 0 = ymax."""
    res_y, res_x = confidence.shape
    pixels = np.rint(np.clip(confidence, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{res_x} {res_y}\n255\n".encode())
        fh.write(pixels.tobytes())


def _check_centers(params: ModelParams, head: HeadKind) -> None:
    """Refuse an affine head, or an embedding too narrow to project onto 2-D."""
    if not head.is_distance:
        raise ValueError(f"head '{head.value}' has no class-center semantics")
    if params.head_weights.shape[0] < 2:
        raise ValueError(f"model.hidden ends in {params.head_weights.shape[0]}; "
                         "centers need an embedding of width >= 2")


def centers_report(params: ModelParams, head: HeadKind,
                   train_data: Dataset) -> dict[str, np.ndarray]:
    """Compare learned class centers against per-class embedding means.

    Affine heads (no center semantics) and embeddings narrower than 2 are refused.
    Embeddings and the weight columns are projected onto the same top-2 PCA
    subspace, and each class gets the alignment error
    ||mean embedding - weight column|| in the original embedding space.
    Returns the centers.csv columns ``kind, label, p0, p1, alignment_error``:
    point rows, then center rows; points have no alignment error.
    """
    _check_centers(params, head)
    emb = _embed(params, head, train_data.features, "training row")[0]
    k = train_data.num_classes
    means = np.empty((k, emb.shape[1]))
    for c in range(k):
        mask = train_data.labels == c
        if not mask.any():
            raise ValueError(f"class {c} has no points in the training data")
        means[c] = emb[mask].mean(axis=0)
    centers = params.head_weights.T
    alignment = np.linalg.norm(means - centers, axis=1)
    projected = np.concatenate(metricsmod.pca2(emb, extra_points=centers)[:2])
    n = len(emb)
    return {"kind": np.repeat(["point", "center"], [n, k]),
            "label": np.concatenate((train_data.labels, np.arange(k))),
            "p0": projected[:, 0], "p1": projected[:, 1],
            "alignment_error": np.concatenate((np.full(n, np.nan), alignment))}


def write_centers_csv(path, columns: dict[str, np.ndarray]) -> None:
    write_csv(path, columns)


# Stages: each takes the config, the head, the trained params (for train:
# the head's outcome of run_all's lockstep ``train``, or None to train it
# alone), a zero-argument callable giving the (train, test, ood) datasets so
# that only stages that need them generate them, and the head's output
# directory, which the caller has made.  It writes that stage's files and
# returns its result plus the summary the CLI prints.

def _train_stage(config, head, trained, datasets, head_dir):
    result = train(config, head, datasets()[0]) if trained is None else trained
    if isinstance(result, Exception):
        raise result
    save_checkpoint(head_dir / "checkpoint.json", result.params, head.value, config.seed)
    write_csv(head_dir / "train_log.csv", result.log)
    return result, (f"trained head '{head.value}' for {config.optim.steps} steps; "
                    f"final train accuracy {result.final_accuracy:.4f}")


def _evaluate_stage(config, head, params, datasets, head_dir):
    _, test_d, ood_points = datasets()
    summary = evaluate(params, head, test_d, ood_points, config, head_dir)
    return summary, (f"head '{head.value}': accuracy {summary['accuracy']:.4f}, "
                     f"ece {summary['ece']:.4f}, auroc {summary['auroc']:.4f}, "
                     f"auprc {summary['auprc']:.4f}")


def _sweep_stage(config, head, params, datasets, head_dir):
    columns = shift_sweep(params, head, datasets()[1], config, head_dir)
    return columns, "\n".join(f"{kind:>14} intensity {intensity}: "
                              f"accuracy {accuracy:.4f}, ece {ece:.4f}"
                              for kind, intensity, accuracy, ece in zip(*columns.values()))


def _landscape_stage(config, head, params, datasets, head_dir):
    columns = landscape(params, head, config)
    res = config.landscape.resolution
    write_landscape_csv(head_dir / "landscape.csv", columns)
    write_landscape_pgm(head_dir / "landscape.pgm", columns["confidence"].reshape(res, res))
    return columns, f"landscape written for head '{head.value}' ({res}x{res} grid)"


def _centers_stage(config, head, params, datasets, head_dir):
    _check_centers(params, head)  # before any data is generated
    d = config.data  # and before pca2 would refuse fewer than 3 training rows
    rows = d.num_classes * d.train_per_class
    if rows < 3:
        raise ValueError(f"data.num_classes {d.num_classes!r}, data.n_per_class "
                         f"{d.n_per_class!r} and data.train_fraction {d.train_fraction!r} "
                         f"leave {rows} training rows; centers need >= 3")
    columns = centers_report(params, head, datasets()[0])
    write_centers_csv(head_dir / "centers.csv", columns)
    alignment = columns["alignment_error"][-config.data.num_classes:]  # the center rows
    return columns, (f"centers report written for head '{head.value}'; "
                     f"mean alignment error {float(alignment.mean()):.4f}")


STAGES = {"train": _train_stage, "evaluate": _evaluate_stage, "sweep": _sweep_stage,
          "landscape": _landscape_stage, "centers": _centers_stage}


@dataclass
class RunOutcome:
    ok: bool
    manifest: dict


def run_all(config: ExperimentConfig, out_dir) -> RunOutcome:
    """Full pipeline for all four heads into one artifact tree.

    Per head: each stage of ``STAGES`` in order, centers for distance heads
    only.  A failed stage is recorded in MANIFEST.json and later stages for
    that head are skipped; other heads still run.  Both data sidecars name
    ``derive_seed(config.seed, "data")``, the seed that regenerates the ring.
    """
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    datasets = make_datasets(config)
    train_d, test_d, ood_points = datasets
    data_dir = out / "data"
    data_dir.mkdir(exist_ok=True)
    gen_params, data_seed = asdict(config.data), derive_seed(config.seed, "data")
    datamod.save_dataset(data_dir / "train.csv", train_d, gen_params, data_seed)
    datamod.save_dataset(data_dir / "test.csv", test_d, gen_params, data_seed)
    write_csv(data_dir / "ood.csv", {"x0": ood_points[:, 0], "x1": ood_points[:, 1]})

    try:  # all four heads in one lockstep loop; each head's train stage writes its files
        trained = dict(zip(HeadKind, train(config, tuple(HeadKind), train_d)))
    except Exception as exc:  # noqa: BLE001 - recorded as every head's train stage
        trained = dict.fromkeys(HeadKind, exc)
    manifest: dict = {"config": asdict(config), "stages": {}}
    compared = []
    ok = True
    for head in HeadKind:
        head_dir = out / head.value
        head_dir.mkdir(exist_ok=True)
        stages: dict[str, str] = {}
        manifest["stages"][head.value] = stages
        results: dict = {}
        failed = False
        for name, stage in STAGES.items():
            if name == "centers" and not head.is_distance:
                continue
            if failed:
                stages[name] = "skipped"
                continue
            params = results["train"].params if "train" in results else trained[head]
            try:
                results[name], _ = stage(config, head, params, lambda: datasets, head_dir)
                stages[name] = "ok"
            except Exception as exc:  # noqa: BLE001 - recorded, run continues
                stages[name] = f"failed: {exc}"
                failed = True
                ok = False
        if "evaluate" in results:
            compared.append({**results["evaluate"],
                             "train_accuracy": results["train"].final_accuracy})

    write_csv(out / "comparison.csv",
              {name: [c[name] for c in compared]
               for name in ("head", "train_accuracy", "accuracy", "ece", "auroc", "auprc")})
    manifest["completed"] = ok
    write_json(out / "MANIFEST.json", manifest)
    return RunOutcome(ok=ok, manifest=manifest)
