"""Output checks on an ovabench artifact tree, and its per-file sha256.

Every metric in ``metrics.json`` and every ``sweep.csv`` row is recomputed
from the prediction dumps with formulas written independently of
``ovabench.metrics`` (ECE as a sum of per-bin gaps, AUROC as a Mann-Whitney
rank statistic), and must agree to 1e-12.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOLERANCE = 1e-12
PREDICTIONS_HEADER = "confidence,predicted_label,true_label,is_ood"


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Predictions:
    confidence: np.ndarray
    predicted: np.ndarray
    true: np.ndarray  # -1 for OOD rows
    is_ood: np.ndarray

    def __len__(self) -> int:
        return len(self.confidence)


def read_predictions(path) -> Predictions:
    text = Path(path).read_text()
    header, _, body = text.partition("\n")
    if header != PREDICTIONS_HEADER:
        raise ValueError(f"{path}: unexpected header {header!r}")
    cells = body.replace("\n", ",").split(",")[:-1]
    if len(cells) % 4:
        raise ValueError(f"{path}: ragged rows")
    true = [c or "-1" for c in cells[2::4]]
    return Predictions(confidence=np.array(cells[0::4], dtype=np.float64),
                       predicted=np.array(cells[1::4], dtype=np.int64),
                       true=np.array(true, dtype=np.int64),
                       is_ood=np.array(cells[3::4], dtype=np.int64) == 1)


def expected_calibration_error(confidence, correct, num_bins: int) -> float:
    """(1/N) * sum over bins of |sum(correct) - sum(confidence)|."""
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    bins = np.clip(np.searchsorted(edges, confidence, side="right") - 1, 0, num_bins - 1)
    gap = np.bincount(bins, weights=correct.astype(np.float64) - confidence,
                      minlength=num_bins)
    return float(np.abs(gap).sum() / len(confidence))


def auroc(scores, positive) -> float:
    """Mann-Whitney U over (n_pos * n_neg), ties taking the average rank."""
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    starts = np.r_[True, sorted_scores[1:] != sorted_scores[:-1]]
    group = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    last = np.r_[first[1:], len(scores)] - 1
    ranks = np.empty(len(scores))
    ranks[order] = (first[group] + last[group]) / 2.0 + 1.0
    n_pos = int(positive.sum())
    n_neg = len(scores) - n_pos
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auprc(scores, positive) -> float:
    """Sum over distinct scores, high to low, of precision times recall gained."""
    _, group = np.unique(-scores, return_inverse=True)
    pos = np.bincount(group, weights=positive.astype(np.float64))
    neg = np.bincount(group, weights=(~positive).astype(np.float64))
    tp, fp = np.cumsum(pos), np.cumsum(neg)
    return float((pos / positive.sum() * tp / (tp + fp)).sum())


def _close(name: str, got: float, want: float) -> Check:
    gap = abs(got - want)
    return Check(name, bool(gap <= TOLERANCE), f"recomputed {got!r}, stored {want!r}")


def check_metrics(head_dir: Path) -> tuple[list[Check], int]:
    """Recompute metrics.json from predictions.csv; returns checks and rows scored."""
    name = f"{head_dir.name}/metrics.json"
    summary = json.loads((head_dir / "metrics.json").read_text())
    p = read_predictions(head_dir / "predictions.csv")
    ident = ~p.is_ood
    correct = p.predicted[ident] == p.true[ident]
    got = {"accuracy": float(correct.mean()),
           "ece": expected_calibration_error(p.confidence[ident], correct,
                                             summary["num_bins"])}
    if p.is_ood.any():
        got["auroc"] = auroc(p.confidence, ident)
        got["auprc"] = auprc(p.confidence, ident)
    checks = [Check(f"{name} head", summary["head"] == head_dir.name, summary["head"]),
              Check(f"{name} counts",
                    summary["counts"] == {"id": int(ident.sum()), "ood": int(p.is_ood.sum())},
                    str(summary["counts"]))]
    checks += [_close(f"{name} {key}", value, summary.get(key, float("nan")))
               for key, value in got.items()]
    return checks, len(p)


def check_sweep(head_dir: Path, num_bins: int) -> tuple[list[Check], int]:
    """Recompute each sweep.csv row from its shift/predictions_<kind>_<n>.csv."""
    lines = (head_dir / "sweep.csv").read_text().splitlines()
    if not lines or lines[0] != "kind,intensity,accuracy,ece":
        return [Check(f"{head_dir.name}/sweep.csv header", False, lines[:1] and lines[0])], 0
    checks, rows = [], 0
    for line in lines[1:]:
        kind, intensity, accuracy, ece = line.split(",")
        name = f"{head_dir.name}/sweep.csv {kind}:{intensity}"
        p = read_predictions(head_dir / "shift" / f"predictions_{kind}_{intensity}.csv")
        correct = p.predicted == p.true
        got = (float(correct.mean()),
               expected_calibration_error(p.confidence, correct, num_bins))
        gap = max(abs(got[0] - float(accuracy)), abs(got[1] - float(ece)))
        checks.append(Check(name, bool(gap <= TOLERANCE) and not p.is_ood.any(),
                            f"recomputed {got}, stored ({accuracy}, {ece})"))
        rows += len(p)
    return checks, rows


def check_manifest(out_dir: Path, expected: dict[str, tuple[str, ...]]) -> list[Check]:
    """One check per expected stage: MANIFEST.json must record it as ok."""
    path = out_dir / "MANIFEST.json"
    if not path.is_file():
        return [Check(f"MANIFEST.json {head}:{stage}", False, "missing")
                for head, stages in expected.items() for stage in stages]
    recorded = json.loads(path.read_text()).get("stages", {})
    return [Check(f"MANIFEST.json {head}:{stage}",
                  recorded.get(head, {}).get(stage) == "ok",
                  str(recorded.get(head, {}).get(stage)))
            for head, stages in expected.items() for stage in stages]


def count_rows(path: Path, prefix: str = "") -> int:
    """Data rows of a CSV, or only those starting with ``prefix``."""
    lines = path.read_text().splitlines()[1:]
    return sum(1 for line in lines if line.startswith(prefix))


def tree_files(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def tree_digest(files: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()
