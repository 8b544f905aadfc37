import dataclasses
import json
import math

import numpy as np
import pytest

from ovabench.data import (Dataset, corrupt, gen_ood, gen_ring, ring_class_means,
                           save_dataset, split)


class TestGenRing:
    def test_class_zero_mean_concentrates(self):
        data = gen_ring(num_classes=10, n_per_class=1000, radius=20.0, variance=2.0, seed=123)
        class0 = data.features[data.labels == 0]
        assert np.linalg.norm(class0.mean(axis=0) - [20.0, 0.0]) < 0.2

    def test_degenerate_variance_collapses_to_means(self):
        data = gen_ring(num_classes=4, n_per_class=50, radius=20.0, variance=1e-12, seed=1)
        means = ring_class_means(4, 20.0)
        for c in range(4):
            pts = data.features[data.labels == c]
            assert np.abs(pts - means[c]).max() < 1e-5

    def test_same_seed_bitwise_identical(self):
        a = gen_ring(seed=99)
        b = gen_ring(seed=99)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_class_covariance_near_isotropic(self):
        data = gen_ring(num_classes=10, n_per_class=1000, variance=2.0, seed=7)
        target = 2.0 * np.eye(2)
        for c in range(10):
            pts = data.features[data.labels == c]
            cov = np.cov(pts.T)
            assert np.abs(cov - target).max() < 0.15 * 2.0

    def test_literal_angle_formula_bunches_means(self):
        means = ring_class_means(10, 20.0, angle_formula="literal")
        angles = np.arctan2(means[:, 1], means[:, 0])
        assert angles.max() - angles.min() < 0.2  # collapsed arc

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gen_ring(num_classes=1)
        with pytest.raises(ValueError):
            gen_ring(variance=0.0)
        with pytest.raises(ValueError):
            ring_class_means(10, 20.0, angle_formula="bogus")


class TestCorrupt:
    def test_rotation_is_isometry(self):
        data = gen_ring(seed=3, n_per_class=100)
        rotated = corrupt(data, "rotation", 5, seed=0)
        assert np.abs(np.linalg.norm(rotated.features, axis=1)
                      - np.linalg.norm(data.features, axis=1)).max() < 1e-9

    def test_rotation_angle(self):
        data = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([0]), num_classes=2)
        rotated = corrupt(data, "rotation", 2, seed=0)
        phi = math.radians(10.0)
        assert np.allclose(rotated.features, [[math.cos(phi), math.sin(phi)]], atol=1e-12)

    def test_noise_moment_check(self):
        data = gen_ring(seed=5)
        noisy = corrupt(data, "gaussian_noise", 3, seed=11)
        noise = noisy.features - data.features
        sigma2 = (3 * math.sqrt(2.0)) ** 2
        assert np.abs(noise.var(axis=0, ddof=1) - sigma2).max() < 0.1 * sigma2
        assert np.abs(noise.mean(axis=0)).max() < 0.2

    def test_labels_and_shape_preserved(self):
        data = gen_ring(seed=6, n_per_class=37)
        for kind, intensity in (("gaussian_noise", 1), ("rotation", 4)):
            out = corrupt(data, kind, intensity, seed=2)
            assert np.array_equal(out.labels, data.labels)
            assert out.features.shape == data.features.shape

    def test_corrupt_deterministic(self):
        data = gen_ring(seed=6, n_per_class=20)
        a = corrupt(data, "gaussian_noise", 2, seed=8)
        b = corrupt(data, "gaussian_noise", 2, seed=8)
        assert np.array_equal(a.features, b.features)

    def test_unknown_kind_rejected(self):
        data = gen_ring(seed=6, n_per_class=2)
        with pytest.raises(ValueError, match="kind"):
            corrupt(data, "fog", 1, seed=0)
        for intensity in (6, 0, 2.5, "3"):
            with pytest.raises(ValueError, match="intensity"):
                corrupt(data, "rotation", intensity, seed=0)


def disc_union_area(means, r):
    """Inclusion-exclusion for discs on a ring: only adjacent pairs overlap."""
    k = len(means)
    area = k * math.pi * r * r
    d_adj = np.linalg.norm(means[0] - means[1])
    d_skip = np.linalg.norm(means[0] - means[2])
    assert d_skip > 2 * r, "next-nearest discs must not overlap for this formula"
    if d_adj < 2 * r:
        lens = 2 * r * r * math.acos(d_adj / (2 * r)) \
            - (d_adj / 2.0) * math.sqrt(4 * r * r - d_adj * d_adj)
        area -= k * lens
    return area


class TestGenOod:
    def test_zero_exclusion_is_plain_uniform(self):
        means = ring_class_means(10, 20.0)
        pts, attempts = gen_ood(500, means, seed=4, exclusion_radius=0.0,
                                with_attempts=True)
        assert attempts == 500
        assert (np.abs(pts) <= 50.0).all()

    def test_every_point_outside_exclusion(self):
        means = ring_class_means(10, 20.0)
        pts = gen_ood(2000, means, seed=5)
        dmin = np.sqrt(((pts[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
        assert (dmin > 8.0).all()

    def test_acceptance_fraction_matches_free_area(self):
        means = ring_class_means(10, 20.0)
        pts, attempts = gen_ood(20000, means, seed=6, with_attempts=True)
        box_area = (2 * 50.0) ** 2
        free_fraction = (box_area - disc_union_area(means, 8.0)) / box_area
        empirical = len(pts) / attempts
        # attempts overshoot the strict minimum by at most one chunk
        assert abs(empirical - free_fraction) < 0.1 * free_fraction

    @pytest.mark.parametrize("n, box_halfwidth, exclusion_radius", [
        (0, 50.0, 8.0), (10, 0.0, 8.0), (10, 50.0, -1.0),
    ], ids=["no-points", "empty-box", "negative-exclusion"])
    def test_invalid_parameters(self, n, box_halfwidth, exclusion_radius):
        with pytest.raises(ValueError, match="need n >= 1, box_halfwidth > 0, "
                                             "exclusion_radius >= 0"):
            gen_ood(n, ring_class_means(3, 20.0), seed=0, box_halfwidth=box_halfwidth,
                    exclusion_radius=exclusion_radius)

    def test_infeasible_rejection_aborts(self):
        means = np.array([[0.0, 0.0]])
        with pytest.raises(ValueError, match="attempts"):
            gen_ood(10, means, seed=7, box_halfwidth=1.0, exclusion_radius=10.0)

    def test_deterministic(self):
        means = ring_class_means(10, 20.0)
        assert np.array_equal(gen_ood(100, means, seed=8), gen_ood(100, means, seed=8))


def ring_per_class(num_classes, n_per_class, radius, variance, seed):
    """gen_ring's features as one draw per class: the oracle for its single draw."""
    means = ring_class_means(num_classes, radius)
    rng = np.random.default_rng(seed)
    return np.concatenate([means[j] + math.sqrt(variance) * rng.standard_normal((n_per_class, 2))
                           for j in range(num_classes)])


def ood_broadcast(n, means, seed, box_halfwidth, exclusion_radius):
    """gen_ood with a [draw x K x 2] broadcast exclusion test: the oracle for its
    per-coordinate passes."""
    rng = np.random.default_rng(seed)
    accepted, total, attempts = [], 0, 0
    while total < n:
        draw = max(n - total, 256)
        candidates = rng.uniform(-box_halfwidth, box_halfwidth, size=(draw, 2))
        attempts += draw
        dist2 = ((candidates[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        keep = candidates[(dist2 > exclusion_radius ** 2).all(axis=1)]
        accepted.append(keep)
        total += len(keep)
    return np.concatenate(accepted)[:n], attempts


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("k, n_per_class, radius, variance, n_ood, exclusion", [
    (10, 1000, 20.0, 2.0, 5000, 8.0),  # the default config
    (10, 5000, 20.0, 2.0, 25000, 8.0),
    (3, 200, 20.0, 3.0, 300, 30.0),  # discs cover most of the box: many rounds
], ids=["default", "5x-data", "three-classes-wide-exclusion"])
def test_generators_give_the_bits_of_their_per_class_and_broadcast_forms(
        seed, k, n_per_class, radius, variance, n_ood, exclusion):
    data = gen_ring(k, n_per_class, radius, variance, seed=seed)
    assert np.array_equal(data.features, ring_per_class(k, n_per_class, radius, variance, seed))
    means = ring_class_means(k, radius)
    got = gen_ood(n_ood, means, seed=seed, exclusion_radius=exclusion, with_attempts=True)
    want = ood_broadcast(n_ood, means, seed, 50.0, exclusion)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    if exclusion == 30.0:
        assert got[1] > 2 * n_ood  # several rejection rounds


class TestSplit:
    def test_exact_counts(self):
        data = gen_ring(num_classes=10, n_per_class=1000, seed=9)
        train, test = split(data, 0.5, seed=10)
        for c in range(10):
            assert (train.labels == c).sum() == 500
            assert (test.labels == c).sum() == 500

    def test_union_is_original_multiset(self):
        data = gen_ring(num_classes=5, n_per_class=40, seed=11)
        train, test = split(data, 0.3, seed=12)
        combined = np.concatenate([train.features, test.features])
        original = data.features
        key = lambda arr: np.lexsort((arr[:, 1], arr[:, 0]))
        assert np.array_equal(combined[key(combined)], original[key(original)])
        assert len(train) + len(test) == len(data)

    def test_seed_determinism_and_sensitivity(self):
        data = gen_ring(num_classes=3, n_per_class=100, seed=13)
        a1, _ = split(data, 0.5, seed=14)
        a2, _ = split(data, 0.5, seed=14)
        b1, _ = split(data, 0.5, seed=15)
        assert np.array_equal(a1.features, a2.features)
        assert not np.array_equal(a1.features, b1.features)

    def test_small_class_rejected(self):
        data = Dataset(features=np.zeros((3, 2)), labels=np.array([0, 0, 1]), num_classes=2)
        with pytest.raises(ValueError, match="class 1"):
            split(data, 0.5, seed=0)

    def test_fraction_bounds(self):
        data = gen_ring(num_classes=2, n_per_class=10, seed=16)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                split(data, bad, seed=0)


@pytest.mark.parametrize("features, labels, message", [
    (np.zeros(3), [0, 1, 0], "features must be a matrix and labels a vector"),
    (np.zeros((3, 2)), [[0, 1, 0]], "features must be a matrix and labels a vector"),
    (np.zeros((3, 2)), [0, 1], "features and labels are misaligned"),
    (np.zeros((2, 2)), [0, 2], r"labels must lie in \[0, 2\)"),
    (np.zeros((2, 2)), [-1, 0], r"labels must lie in \[0, 2\)"),
], ids=["vector-features", "matrix-labels", "misaligned", "label-too-large", "negative-label"])
def test_malformed_dataset_refused(features, labels, message):
    with pytest.raises(ValueError, match=message):
        Dataset(features=features, labels=np.asarray(labels), num_classes=2)


def test_dataset_holds_float64_features_and_int64_labels():
    data = Dataset(features=[[0, 1], [2, 3]], labels=np.array([1, 0], np.int32), num_classes=2)
    assert isinstance(data.features, np.ndarray) and data.features.dtype == np.float64
    assert np.array_equal(data.features, [[0.0, 1.0], [2.0, 3.0]])
    assert data.labels.dtype == np.int64 and data.labels.tolist() == [1, 0]


@pytest.mark.parametrize("labels", [[1.9, 0.0], ["1", "0"], [True, False]],
                         ids=["float", "str", "bool"])
def test_labels_that_are_not_integers_are_refused(labels):
    dtype = np.asarray(labels).dtype
    with pytest.raises(ValueError) as info:
        Dataset(features=[[0.0, 0.0], [1.0, 1.0]], labels=labels, num_classes=2)
    assert str(info.value) == f"labels must be integers, got dtype {dtype}"


def test_unsigned_labels_above_the_int64_range_are_refused_as_given():
    with pytest.raises(ValueError) as info:  # once wrapped to label -1, and refused as such
        Dataset(features=[[0.0, 0.0]], labels=np.array([2 ** 64 - 1], np.uint64), num_classes=2)
    assert str(info.value) == "labels value 18446744073709551615 does not fit int64"


def test_an_empty_dataset_may_carry_float_labels():
    data = Dataset(features=np.zeros((0, 2)), labels=(), num_classes=2)
    assert data.labels.dtype == np.int64 and len(data) == 0


class TestDatasetIsFrozen:
    """A ``Dataset`` is checked once, when it is built, and cannot change after that: a label
    of 99 written into a test set once reached ``shift_sweep``, which wrote a prediction dump
    scoring it as wrong before ``corrupt`` refused the set."""

    @pytest.mark.parametrize("field", ["features", "labels", "num_classes"])
    def test_a_field_cannot_be_reassigned(self, field):
        data = gen_ring(num_classes=3, n_per_class=4, seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(data, field, getattr(data, field))

    @pytest.mark.parametrize("field", ["features", "labels"])
    @pytest.mark.parametrize("make", [
        lambda: gen_ring(num_classes=3, n_per_class=4, seed=0),
        lambda: split(gen_ring(num_classes=3, n_per_class=4, seed=0), 0.5, seed=1)[1],
        lambda: corrupt(gen_ring(num_classes=3, n_per_class=4, seed=0), "rotation", 1, 2),
        lambda: Dataset([[0.0, 1.0], [2.0, 3.0]], [0, 2], num_classes=3),
    ], ids=["gen_ring", "split", "corrupt", "lists"])
    def test_an_array_cannot_be_written(self, make, field):
        data = make()
        with pytest.raises(ValueError, match="read-only"):
            getattr(data, field)[1] = 2
        with pytest.raises(ValueError, match="read-only"):
            getattr(data, field)[:1][...] = 0  # and so is a view of it

    def test_a_write_into_the_source_arrays_does_not_reach_it(self):
        features, labels = np.zeros((3, 2)), np.array([0, 1, 0])
        data = Dataset(features=features, labels=labels, num_classes=2)
        features[0, 0], labels[1] = 1e300, 99
        assert data.features.tolist() == [[0.0, 0.0]] * 3 and data.labels.tolist() == [0, 1, 0]


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        data = gen_ring(num_classes=3, n_per_class=8, seed=17)
        path = tmp_path / "ring.csv"
        save_dataset(path, data, {"num_classes": 3, "n_per_class": 8}, 17)
        lines = path.read_text().splitlines()
        assert lines[0] == "x0,x1,label"
        rows = [line.split(",") for line in lines[1:]]
        features = np.array([(float(x0), float(x1)) for x0, x1, _ in rows])
        labels = np.array([int(label) for _, _, label in rows])
        meta = json.loads((tmp_path / "ring.meta.json").read_text())
        assert np.array_equal(features, data.features)
        assert np.array_equal(labels, data.labels)
        assert meta["num_classes"] == 3

    def test_sidecar_records_prng(self, tmp_path):
        import json
        data = gen_ring(num_classes=2, n_per_class=3, seed=18)
        save_dataset(tmp_path / "d.csv", data, {}, 18)
        meta = json.loads((tmp_path / "d.meta.json").read_text())
        assert "PCG64" in meta["prng"]
        assert meta["generator"] == "gen_ring"
        assert meta["seed"] == 18

    def test_a_str_path_is_accepted(self, tmp_path):
        data = gen_ring(num_classes=2, n_per_class=3, seed=19)
        save_dataset(str(tmp_path / "d.csv"), data, {}, 19)
        assert (tmp_path / "d.csv").read_text().startswith("x0,x1,label\n")
        assert json.loads((tmp_path / "d.meta.json").read_text())["seed"] == 19

    def test_only_two_feature_columns_saved(self, tmp_path):
        data = Dataset(features=np.zeros((2, 3)), labels=np.array([0, 1]), num_classes=2)
        with pytest.raises(ValueError, match="fixed to 2 feature columns"):
            save_dataset(tmp_path / "d.csv", data, {}, 0)
        assert not (tmp_path / "d.csv").exists()
