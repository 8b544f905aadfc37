"""Deterministic synthetic 2D data: Gaussian ring, corruptions, OOD clouds.

Every generator is a pure function of its parameters and a 64-bit seed, using
numpy's default PCG64 generator (normals via Generator.standard_normal, i.e.
the ziggurat transform).  The generator name is recorded in the metadata
sidecar written next to each dataset CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .ioutil import write_csv, write_json
from .nncore import _as_labels, _freeze

PRNG_NOTE = "numpy default_rng (PCG64); normals via Generator.standard_normal (ziggurat)"

CORRUPTION_KINDS = ("gaussian_noise", "rotation")


@dataclass(frozen=True)
class Dataset:
    """Feature rows with integer class labels in [0, num_classes), as read-only copies."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        _freeze(self, features=np.asarray(self.features, dtype=np.float64),
                labels=_as_labels(self.labels))
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be a matrix and labels a vector")
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels are misaligned")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __reduce__(self):  # a copy or an unpickled value is built, so checked and frozen, again
        return Dataset, (self.features, self.labels, self.num_classes)

    def __len__(self) -> int:
        return len(self.labels)


def ring_class_means(num_classes: int, radius: float,
                     angle_formula: str = "ring") -> np.ndarray:
    """Class means on a circle of the given radius.

    ``angle_formula`` "ring" spaces classes evenly (theta_j = 2*pi*j/K);
    "literal" uses theta_j = j / (K * 2*pi), which bunches all means into a
    narrow arc and exists only for fidelity experiments.
    """
    if angle_formula == "ring":
        theta = 2.0 * math.pi * np.arange(num_classes) / num_classes
    elif angle_formula == "literal":
        theta = np.arange(num_classes) / (num_classes * 2.0 * math.pi)
    else:
        raise ValueError(f"unknown angle_formula {angle_formula!r}")
    return np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))


def gen_ring(num_classes: int = 10, n_per_class: int = 1000, radius: float = 20.0,
             variance: float = 2.0, seed: int = 0,
             angle_formula: str = "ring") -> Dataset:
    """Sample an isotropic 2D Gaussian cluster per class, means on a ring."""
    if num_classes < 2 or n_per_class < 1 or radius <= 0 or variance <= 0:
        raise ValueError("need num_classes >= 2, n_per_class >= 1, radius > 0, variance > 0")
    means = ring_class_means(num_classes, radius, angle_formula)
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), n_per_class)
    # one draw for all classes is the stream of one draw per class (PCG64)
    features = rng.standard_normal((num_classes, n_per_class, 2))
    features *= math.sqrt(variance)
    features += means[:, None, :]
    return Dataset(features=features.reshape(-1, 2), labels=labels, num_classes=num_classes)


def corrupt(data: Dataset, kind: str, intensity: int, seed: int) -> Dataset:
    """Apply a named corruption at an integer intensity from 1 (mild) to 5
    (severe); labels and row count never change.

    gaussian_noise adds isotropic noise with sigma = intensity * sqrt(2), one
    cluster standard deviation per intensity step, which spans mild to severe
    accuracy degradation on the default ring task.  rotation turns all points
    about the origin by 5 degrees per intensity.
    """
    if kind not in CORRUPTION_KINDS:
        raise ValueError(f"unknown corruption kind {kind!r}")
    if type(intensity) is not int or not 1 <= intensity <= 5:
        raise ValueError(f"intensity {intensity!r} outside [1, 5]")
    if kind == "gaussian_noise":
        sigma = intensity * math.sqrt(2.0)
        rng = np.random.default_rng(seed)
        features = data.features + sigma * rng.standard_normal(data.features.shape)
    else:
        phi = math.radians(5.0 * intensity)
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        features = data.features @ rot.T
    return replace(data, features=features)


def gen_ood(n: int, class_means, seed: int, box_halfwidth: float = 50.0,
            exclusion_radius: float = 8.0, with_attempts: bool = False):
    """Uniform points on a square, rejecting anything near a class mean.

    Rejection keeps only points farther than ``exclusion_radius`` from every
    class mean; sampling aborts once 1000*n candidates have been drawn, which
    signals an infeasible box/exclusion combination.
    """
    if n < 1 or box_halfwidth <= 0 or exclusion_radius < 0:
        raise ValueError("need n >= 1, box_halfwidth > 0, exclusion_radius >= 0")
    means = np.asarray(class_means, dtype=np.float64)
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    total, attempts = 0, 0
    max_attempts = 1000 * n
    while total < n:
        if attempts >= max_attempts:
            raise ValueError(f"rejection sampling exceeded {max_attempts} attempts; "
                             "exclusion discs nearly cover the box")
        draw = min(max(n - total, 256), max_attempts - attempts)
        candidates = rng.uniform(-box_halfwidth, box_halfwidth, size=(draw, 2))
        attempts += draw
        dist2 = np.subtract.outer(candidates[:, 0], means[:, 0])  # [draw x K]
        dist2 *= dist2
        dy = np.subtract.outer(candidates[:, 1], means[:, 1])
        dist2 += np.multiply(dy, dy, out=dy)
        keep = candidates[(dist2 > exclusion_radius ** 2).all(axis=1)]
        accepted.append(keep)
        total += len(keep)
    points = np.concatenate(accepted)[:n]
    if with_attempts:
        return points, attempts
    return points


def split(data: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified split: per class, shuffle and give floor(fraction*count) to train."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in range(data.num_classes):
        idx = np.nonzero(data.labels == c)[0]
        if len(idx) < 2:
            raise ValueError(f"class {c} has fewer than 2 points; cannot split")
        perm = rng.permutation(idx)
        cut = int(math.floor(train_fraction * len(idx)))
        train_idx.append(perm[:cut])
        test_idx.append(perm[cut:])
    tr = np.concatenate(train_idx)
    te = np.concatenate(test_idx)
    make = lambda sel: replace(data, features=data.features[sel], labels=data.labels[sel])
    return make(tr), make(te)


def save_dataset(path, data: Dataset, params: dict, seed: int) -> None:
    """Write features/labels as CSV plus a JSON sidecar naming the generator
    (always ``gen_ring``) and the ``params`` and ``seed`` it was called with."""
    path = Path(path)
    if data.features.shape[1] != 2:
        raise ValueError("dataset CSV format is fixed to 2 feature columns")
    write_csv(path, {"x0": data.features[:, 0], "x1": data.features[:, 1],
                     "label": data.labels})
    meta = {
        "generator": "gen_ring",
        "params": params,
        "seed": int(seed),
        "num_classes": int(data.num_classes),
        "prng": PRNG_NOTE,
    }
    write_json(path.with_suffix(".meta.json"), meta)

