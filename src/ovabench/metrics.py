"""Calibration, ranking, and summary metrics over scored predictions.

All metrics consume columnar predictions (confidence, predicted label, true
label and an out-of-distribution marker per example) so they can be
recomputed from the CSV prediction dumps the harness writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .ioutil import write_csv
from .nncore import _as_labels, _freeze

_PREDICTIONS_HEADER = ["confidence", "predicted_label", "true_label", "is_ood"]


@dataclass(frozen=True)
class Predictions:
    """Scored examples as four read-only columns (copies); ``true_label`` is -1 on OOD rows."""

    confidence: np.ndarray
    predicted_label: np.ndarray
    true_label: np.ndarray
    is_ood: np.ndarray

    def __post_init__(self):
        _freeze(self, confidence=np.asarray(self.confidence, dtype=np.float64),
                predicted_label=_as_labels(self.predicted_label, "predicted_label"),
                true_label=_as_labels(self.true_label, "true_label"),
                is_ood=np.asarray(self.is_ood, dtype=bool))
        if any(c.ndim != 1 or c.shape != self.confidence.shape for c in self._columns()):
            raise ValueError("prediction columns must be equal-length vectors")
        bad = ~((self.confidence >= 0.0) & (self.confidence <= 1.0))  # NaN included
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"confidence {self.confidence[i]} at row {i} outside [0, 1]")

    @classmethod
    def from_scores(cls, confidence, predicted_label, true_label=None) -> "Predictions":
        """In-distribution rows, or OOD rows when ``true_label`` is None."""
        n = len(confidence)
        if true_label is None:
            return cls(confidence, predicted_label, np.full(n, -1), np.ones(n, dtype=bool))
        return cls(confidence, predicted_label, true_label, np.zeros(n, dtype=bool))

    @classmethod
    def concatenate(cls, parts) -> "Predictions":
        return cls(*map(np.concatenate, zip(*(p._columns() for p in parts))))

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def __reduce__(self):  # a copy or an unpickled value is built, so checked and frozen, again
        return Predictions, tuple(self._columns())

    def __len__(self) -> int:
        return len(self.confidence)

    def __getitem__(self, mask) -> "Predictions":
        return Predictions(*(c[mask] for c in self._columns()))

    @property
    def is_correct(self) -> np.ndarray:
        return ~self.is_ood & (self.predicted_label == self.true_label)


def _bins(confidences: np.ndarray, num_bins: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    # The bin of each confidence, and the bin_lo/bin_hi columns.  Equal-width
    # bins on [0, 1]; a value on an interior edge goes to the higher bin, and
    # 1.0 lands in the top bin.
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    idx = np.clip(np.searchsorted(edges, confidences, side="right") - 1, 0, num_bins - 1)
    return idx, {"bin_lo": edges[:-1], "bin_hi": edges[1:]}


def ece(preds: Predictions, num_bins: int = 15) -> tuple[float, dict[str, np.ndarray]]:
    """Expected calibration error plus the per-bin reliability table.

    ECE is the occupancy-weighted mean absolute gap between per-bin accuracy
    and per-bin mean confidence; empty bins contribute nothing.  Only
    in-distribution rows are accepted.  The table is the calibration.csv
    columns ``bin_lo, bin_hi, count, mean_confidence, accuracy``; empty bins
    hold NaN for mean confidence and accuracy.
    """
    idx, columns = _bins(preds.confidence, num_bins)
    if not len(preds):
        raise ValueError("ece requires at least one prediction")
    if preds.is_ood.any():
        raise ValueError("ece is an in-distribution metric; drop OOD rows first")
    conf = preds.confidence
    correct = preds.is_correct.astype(np.float64)
    counts = np.bincount(idx, minlength=num_bins)
    conf_sums = np.bincount(idx, weights=conf, minlength=num_bins)
    correct_sums = np.bincount(idx, weights=correct, minlength=num_bins)
    with np.errstate(invalid="ignore"):
        mean_conf = np.where(counts > 0, conf_sums / counts, np.nan)
        acc = np.where(counts > 0, correct_sums / counts, np.nan)
    total = len(preds)
    value = 0.0
    for b in range(num_bins):
        if counts[b] > 0:
            value += (counts[b] / total) * abs(acc[b] - mean_conf[b])
    return value, {**columns, "count": counts, "mean_confidence": mean_conf, "accuracy": acc}


def accuracy_vs_confidence(preds: Predictions, thresholds) -> dict[str, np.ndarray]:
    """Accuracy over the rows whose confidence is >= each threshold, as the
    curve.csv columns ``threshold, retained, accuracy``.

    OOD rows count as incorrect whenever retained; a threshold that retains
    nothing (NaN included) gets NaN accuracy rather than zero.  One sort: each
    threshold's retained rows are a suffix of the rows sorted by confidence.
    """
    taus = np.asarray(thresholds, dtype=np.float64)
    order = np.argsort(preds.confidence)
    cut = np.searchsorted(preds.confidence[order], taus)  # first row with conf >= tau
    correct_from = np.append(np.cumsum(preds.is_correct[order][::-1])[::-1], 0)
    retained = len(order) - cut
    accuracy = np.divide(correct_from[cut], retained, out=np.full(len(taus), np.nan),
                         where=retained > 0)
    return {"threshold": taus, "retained": retained, "accuracy": accuracy}


def auroc_auprc(scores, is_positive) -> tuple[float, float]:
    """Threshold-free ranking metrics (AUROC, AUPRC) for a binary score
    separation task.

    AUROC is integrated from the ROC curve with tied scores grouped at one
    threshold, which equals the Mann-Whitney statistic P(pos > neg) +
    0.5 P(tie).  AUPRC is the step-wise sum of precision times recall
    increments over the sorted unique thresholds.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(is_positive, dtype=bool)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and is_positive must be equal-length vectors")
    num_pos = int(y.sum())
    num_neg = int((~y).sum())
    if num_pos == 0 or num_neg == 0:
        raise ValueError("need at least one positive and one negative")
    order = np.argsort(-s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]
    # last index of each group of tied scores
    group_end = np.nonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))[0]
    tp = np.cumsum(y_sorted)[group_end]
    fp = np.cumsum(~y_sorted)[group_end]
    tpr = tp / num_pos
    fpr = fp / num_neg
    roc_x = np.concatenate(([0.0], fpr))
    roc_y = np.concatenate(([0.0], tpr))
    auroc = float(((roc_x[1:] - roc_x[:-1]) * (roc_y[1:] + roc_y[:-1]) / 2.0).sum())
    precision = tp / (tp + fp)
    recall_prev = np.concatenate(([0.0], tpr[:-1]))
    auprc = float(((tpr - recall_prev) * precision).sum())
    return auroc, auprc


def confidence_histograms(preds: Predictions, num_bins: int = 15) -> dict[str, np.ndarray]:
    """Histogram the confidences of correct ID, incorrect ID and OOD rows
    over shared [0, 1] bins, as the histograms.csv columns ``bin_lo, bin_hi,
    correct_id, incorrect_id, ood``."""
    idx, columns = _bins(preds.confidence, num_bins)
    correct, ood = preds.is_correct, preds.is_ood
    masks = {"correct_id": correct, "incorrect_id": ~correct & ~ood, "ood": ood}
    return {**columns, **{name: np.bincount(idx[mask], minlength=num_bins)
                          for name, mask in masks.items()}}


def boxplot_stats(values) -> dict[str, float]:
    """Five-number summary with quartiles by inclusive linear interpolation,
    keyed by the sweep_stats.csv headers ``min, q1, median, q3, max``."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("boxplot_stats requires at least one value")
    s = np.sort(v)
    n = s.size

    def quantile(q):
        h = q * (n - 1)
        lo = int(math.floor(h))
        t = h - lo
        if t == 0.0 or lo + 1 >= n:
            return float(s[lo])
        return float(s[lo] + t * (s[lo + 1] - s[lo]))

    return {"min": float(s[0]), "q1": quantile(0.25), "median": quantile(0.5),
            "q3": quantile(0.75), "max": float(s[-1])}


def pca2(points, extra_points=None) -> tuple[np.ndarray, np.ndarray | None,
                                               np.ndarray, np.ndarray]:
    """Project points (and optional extras) onto the top-2 PCA subspace;
    returns ``(points, extras, components, eigenvalues)``, extras None without
    ``extra_points``.

    Centering uses the points' mean; extra points share that centering.  The
    two components are the top eigenvectors of the covariance from an exact
    symmetric eigendecomposition; they are orthonormal, and each is
    sign-fixed so its largest-magnitude coordinate is positive.  Raises if
    the covariance is not finite or has fewer than two nonzero eigenvalues.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] < 2:
        raise ValueError("points must be [n x d] with n >= 3 and d >= 2")
    with np.errstate(all="ignore"):  # refused below, without warnings
        mean = pts.mean(axis=0)
        centered = pts - mean
        cov = centered.T @ centered / (pts.shape[0] - 1)
    if not np.isfinite(cov).all():
        raise ValueError("the covariance of the points is not finite (they overflow it)")
    scale = max(float(np.trace(cov)), 1.0)
    values, vectors = np.linalg.eigh(cov)  # ascending
    eigenvalues = values[[-1, -2]]
    if eigenvalues[1] <= scale * 1e-12:
        raise ValueError("covariance has fewer than 2 nonzero eigenvalues")
    basis = vectors[:, [-1, -2]]
    top = np.argmax(np.abs(basis), axis=0)
    basis *= np.where(basis[top, [0, 1]] < 0, -1.0, 1.0)
    projected = centered @ basis
    extras = None
    if extra_points is not None:
        extra = np.asarray(extra_points, dtype=np.float64)
        if extra.ndim != 2 or extra.shape[1] != pts.shape[1]:
            raise ValueError("extra_points must be [m x d] with matching d")
        extras = (extra - mean) @ basis
    return projected, extras, basis, eigenvalues


def write_predictions(path, preds: Predictions) -> None:
    """Dump predictions as CSV: confidence,predicted_label,true_label,is_ood;
    ``true_label`` is an empty cell on OOD rows."""
    true_label = np.where(preds.is_ood, np.nan, preds.true_label)
    write_csv(path, dict(zip(_PREDICTIONS_HEADER, (preds.confidence, preds.predicted_label,
                                                   true_label, preds.is_ood))))


def _parse_prediction(line: str) -> tuple[float, int, int, bool]:
    cells = line.split(",")
    if len(cells) != 4:
        raise ValueError(f"expected 4 columns, got {len(cells)}")
    conf, pred, true, ood = cells
    if ood not in ("0", "1"):
        raise ValueError(f"is_ood must be 0 or 1, got {ood!r}")
    is_ood = ood == "1"
    if (true == "") != is_ood:
        raise ValueError("true_label must be empty exactly when is_ood is 1")
    confidence = float(conf)
    if not 0.0 <= confidence <= 1.0:
        raise ValueError(f"confidence {confidence} outside [0, 1]")
    return confidence, int(pred), -1 if is_ood else int(true), is_ood


def read_predictions(path) -> Predictions:
    """Load a prediction dump; a malformed row raises naming its 1-based line."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != ",".join(_PREDICTIONS_HEADER):
        raise ValueError(f"{path} is not a prediction dump")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rows.append(_parse_prediction(line))
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
    columns = list(zip(*rows)) or [()] * 4
    return Predictions(*columns)
