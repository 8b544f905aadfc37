import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovabench.ioutil import CSV_BLOCK_ROWS, write_csv
from ovabench.metrics import (Predictions, accuracy_vs_confidence, auroc_auprc,
                              boxplot_stats, confidence_histograms, ece, pca2,
                              read_predictions, write_predictions)


def rec(confidence, correct=True, ood=False):
    """One row: (confidence, predicted_label, true_label, is_ood)."""
    if ood:
        return (confidence, 0, -1, True)
    return (confidence, 0, 0 if correct else 1, False)


def preds(rows):
    """Columnar predictions from ``rec`` rows."""
    return Predictions(*(zip(*rows) if rows else [()] * 4))


def hist_preds(correct_id, incorrect_id, ood):
    """Predictions whose correct, incorrect and OOD confidences are the given lists."""
    return preds([rec(c, True) for c in correct_id] + [rec(c, False) for c in incorrect_id]
                 + [rec(c, ood=True) for c in ood])


class TestEce:
    def test_perfectly_calibrated_bin(self):
        records = preds([rec(0.75, True), rec(0.75, True), rec(0.75, True), rec(0.75, False)])
        value, _ = ece(records, 15)
        assert value == 0.0

    def test_single_bin_hand_case(self):
        records = preds([rec(0.9, True), rec(0.9, True), rec(0.9, True), rec(0.9, False)])
        value, table = ece(records, 15)
        # scalar re-derivation of the same quantity
        mean_conf = (0.9 + 0.9 + 0.9 + 0.9) / 4
        acc = 3 / 4
        assert value == abs(acc - mean_conf)
        assert value == pytest.approx(0.15, abs=1e-12)
        assert table["count"].sum() == 4

    def test_confidence_one_lands_in_top_bin(self):
        records = preds([rec(1.0, True) for _ in range(5)])
        value, table = ece(records, 15)
        assert value == 0.0
        assert table["count"][14] == 5
        assert table["count"][:14].sum() == 0

    def test_interior_edge_goes_to_higher_bin(self):
        edge = np.linspace(0.0, 1.0, 16)[3]
        _, table = ece(preds([rec(float(edge))]), 15)
        assert table["count"][3] == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ece(preds([]), 15)

    def test_no_bins_rejected(self):
        with pytest.raises(ValueError, match="num_bins must be >= 1"):
            ece(preds([rec(0.5)]), 0)

    def test_ood_rejected(self):
        with pytest.raises(ValueError, match="in-distribution"):
            ece(preds([rec(0.5, ood=True)]), 15)

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.floats(0, 1), st.booleans()), min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    def test_permutation_invariance(self, pairs, rnd):
        records = [rec(c, ok) for c, ok in pairs]
        value, _ = ece(preds(records), 15)
        shuffled = list(records)
        rnd.shuffle(shuffled)
        value2, _ = ece(preds(shuffled), 15)
        assert value2 == pytest.approx(value, abs=1e-12)

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.floats(0.401, 0.465), st.booleans()),
                    min_size=1, max_size=30))
    def test_single_bin_equals_gap_exactly(self, pairs):
        # all confidences inside one 1/15-wide bin
        records = [rec(c, ok) for c, ok in pairs]
        value, _ = ece(preds(records), 15)
        conf_total, correct_total = 0.0, 0.0
        for conf, _, true, _ in records:  # left-to-right accumulation, as the binned sums do
            conf_total += conf
            correct_total += 1.0 if true == 0 else 0.0
        assert value == abs(correct_total / len(records) - conf_total / len(records))

    def test_mean_confidence_within_bin_edges(self):
        rng = np.random.default_rng(0)
        records = preds([rec(float(c), bool(rng.integers(2))) for c in rng.uniform(0, 1, 500)])
        _, table = ece(records, 15)
        for b in range(15):
            if table["count"][b]:
                assert table["bin_lo"][b] - 1e-12 <= table["mean_confidence"][b]
                assert table["mean_confidence"][b] <= table["bin_hi"][b] + 1e-12


class TestAccuracyVsConfidence:
    def test_all_correct_full_confidence(self):
        records = preds([rec(1.0, True) for _ in range(4)])
        curve = accuracy_vs_confidence(records, np.linspace(0, 1, 11))
        assert (curve["accuracy"] == 1.0).all()
        assert (curve["retained"] == 4).all()

    def test_ood_counted_incorrect(self):
        records = preds([rec(0.9, True), rec(0.9, True), rec(0.95, ood=True)])
        curve = accuracy_vs_confidence(records, [0.92])
        assert curve["retained"][0] == 1
        assert curve["accuracy"][0] == 0.0

    def test_zero_threshold_is_overall_accuracy(self):
        records = preds([rec(0.9, True), rec(0.9, True), rec(0.95, ood=True)])
        curve = accuracy_vs_confidence(records, [0.0])
        assert curve["retained"][0] == 3
        assert curve["accuracy"][0] == pytest.approx(2 / 3)

    def test_empty_retention_is_nan_not_zero(self):
        records = preds([rec(0.2, True)])
        curve = accuracy_vs_confidence(records, [0.5])
        assert curve["retained"][0] == 0
        assert math.isnan(curve["accuracy"][0])

    def test_retained_nonincreasing(self):
        rng = np.random.default_rng(1)
        records = preds([rec(float(c), True) for c in rng.uniform(0, 1, 100)])
        curve = accuracy_vs_confidence(records, np.linspace(0, 1, 101))
        assert (np.diff(curve["retained"]) <= 0).all()

    def test_threshold_above_max_ood_confidence_excludes_ood(self):
        records = preds([rec(0.8, True), rec(0.99, True), rec(0.6, ood=True),
                         rec(0.7, ood=True)])
        curve = accuracy_vs_confidence(records, [0.7000000001])
        assert curve["retained"][0] == 2
        assert curve["accuracy"][0] == 1.0

    @settings(max_examples=300, deadline=None)
    @given(confidences=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0])
                                | st.floats(0.0, 1.0), max_size=30),
           kinds=st.lists(st.sampled_from(["correct", "incorrect", "ood"]), min_size=30,
                          max_size=30),
           picked=st.lists(st.integers(0, 29), max_size=5),
           drawn=st.lists(st.floats(allow_nan=True, allow_infinity=True)
                          | st.sampled_from([-0.0, 0.0, 1.0, np.nextafter(0.5, 1.0)]),
                          max_size=10))
    def test_equals_the_per_threshold_loop_bit_for_bit(self, confidences, kinds, picked,
                                                       drawn):
        """Ties, thresholds equal to confidences, NaN and out-of-range thresholds, and no
        rows, against the loop the one sorted pass replaced."""
        records = preds([rec(c, kind == "correct", kind == "ood")
                         for c, kind in zip(confidences, kinds)])
        taus = np.array([confidences[i] for i in picked if i < len(confidences)] + drawn,
                        dtype=np.float64)
        curve = accuracy_vs_confidence(records, taus)
        correct = records.is_correct.astype(np.float64)
        retained = np.array([np.count_nonzero(records.confidence >= tau) for tau in taus],
                            dtype=np.int64)
        accuracy = np.array([correct[records.confidence >= tau].mean() if kept else np.nan
                             for tau, kept in zip(taus, retained)], dtype=np.float64)
        assert curve["threshold"].tobytes() == taus.tobytes()
        assert curve["retained"].dtype == np.int64
        assert curve["retained"].tolist() == retained.tolist()
        assert curve["accuracy"].tobytes() == accuracy.tobytes()  # NaN where nothing is kept


def brute_force_auroc(scores, is_positive):
    pos = [s for s, p in zip(scores, is_positive) if p]
    neg = [s for s, p in zip(scores, is_positive) if not p]
    total = 0.0
    for ps in pos:
        for ns in neg:
            if ps > ns:
                total += 1.0
            elif ps == ns:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestRanking:
    def test_perfect_separation(self):
        auroc, auprc = auroc_auprc([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert auroc == 1.0
        assert auprc == 1.0

    def test_all_ties_is_half(self):
        auroc, auprc = auroc_auprc([0.5] * 6, [True, False, True, False, True, False])
        assert auroc == 0.5
        assert auprc == 0.5  # precision = prevalence at the single threshold

    def test_hand_case_three_quarters(self):
        auroc, auprc = auroc_auprc([0.9, 0.8, 0.7, 0.6], [True, False, True, False])
        assert auroc == pytest.approx(0.75, abs=1e-15)
        assert auroc == pytest.approx(
            brute_force_auroc([0.9, 0.8, 0.7, 0.6], [True, False, True, False]), abs=1e-15)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc_auprc([0.1, 0.2], [True, True])

    @pytest.mark.parametrize("scores, is_positive", [
        ([0.1, 0.2, 0.3], [True, False]),
        ([[0.1, 0.2]], [[True, False]]),
    ], ids=["unequal-length", "matrix"])
    def test_scores_and_labels_must_be_equal_length_vectors(self, scores, is_positive):
        with pytest.raises(ValueError, match="scores and is_positive must be equal-length"):
            auroc_auprc(scores, is_positive)

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.sampled_from([round(v * 0.05, 2) for v in range(21)]),
                              st.booleans()), min_size=2, max_size=60))
    def test_matches_brute_force(self, pairs):
        scores = [s for s, _ in pairs]
        labels = [l for _, l in pairs]
        if not (any(labels) and not all(labels)):
            return
        auroc, auprc = auroc_auprc(scores, labels)
        assert abs(auroc - brute_force_auroc(scores, labels)) < 1e-12

    def test_auprc_hand_case(self):
        # descending: 0.9 pos, 0.8 neg, 0.7 pos, 0.6 neg
        # recall steps: 0.5 @ precision 1/1, then 1.0 @ precision 3/4... wait:
        # thresholds: 0.9 -> P=1/1 R=1/2 ; 0.8 -> P=1/2 R=1/2 ; 0.7 -> P=2/3 R=1 ; 0.6 -> P=2/4 R=1
        # AP = (0.5-0)*1 + (0.5-0.5)*0.5 + (1-0.5)*2/3 + 0 = 0.5 + 1/3
        auroc, auprc = auroc_auprc([0.9, 0.8, 0.7, 0.6], [True, False, True, False])
        assert auprc == pytest.approx(0.5 + 1.0 / 3.0, abs=1e-12)


class TestHistograms:
    def test_empty_ood_list(self):
        h = confidence_histograms(hist_preds([0.5, 0.9], [0.3], []), 10)
        assert h["ood"].sum() == 0
        assert h["correct_id"].sum() == 2
        assert h["incorrect_id"].sum() == 1

    def test_all_half_one_bin(self):
        h = confidence_histograms(hist_preds([0.5] * 7, [0.5] * 3, [0.5] * 2), 10)
        assert h["correct_id"][5] == 7 and h["correct_id"].sum() == 7
        assert h["incorrect_id"][5] == 3
        assert h["ood"][5] == 2

    def test_matches_counting_loop(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, 300)
        h = confidence_histograms(hist_preds(values, [], []), 15)
        edges = np.linspace(0, 1, 16)
        manual = np.zeros(15, dtype=int)
        for v in values:
            b = 14
            for i in range(15):
                if edges[i] <= v < edges[i + 1]:
                    b = i
                    break
            manual[b] += 1
        assert np.array_equal(h["correct_id"], manual)

    def test_out_of_range_rejected(self):
        for bad in (1.2, -0.25, float("nan")):
            with pytest.raises(ValueError):
                confidence_histograms(hist_preds([bad], [], []), 10)

    def test_no_bins_rejected(self):
        with pytest.raises(ValueError, match="num_bins must be >= 1"):
            confidence_histograms(hist_preds([0.5], [], []), 0)

    def test_bins_alike_with_the_ece_table(self):
        edges = np.linspace(0.0, 1.0, 16)
        values = np.concatenate([[0.0, 1.0], edges, np.nextafter(edges[1:], 0.0),
                                 np.nextafter(edges[:-1], 1.0)])
        id_preds = hist_preds(values, values[::2], [])
        table = ece(id_preds, 15)[1]
        h = confidence_histograms(id_preds, 15)
        assert np.array_equal(table["count"], h["correct_id"] + h["incorrect_id"])
        assert table["count"].sum() == len(id_preds)
        for column in ("bin_lo", "bin_hi"):
            assert table[column].tobytes() == h[column].tobytes()


def oracle_five_numbers(values):
    """Sort-and-interpolate oracle, written independently of the implementation."""
    s = sorted(float(v) for v in values)
    n = len(s)

    def interp(q):
        pos = q * (n - 1)
        lower = int(math.floor(pos))
        frac = pos - lower
        if lower + 1 < n:
            return s[lower] + frac * (s[lower + 1] - s[lower])
        return s[lower]

    return s[0], interp(0.25), interp(0.5), interp(0.75), s[-1]


class TestBoxplot:
    def test_symmetric_odd_length(self):
        b = boxplot_stats([1, 2, 3, 4, 5])
        assert (b["min"], b["q1"], b["median"], b["q3"], b["max"]) == (1, 2, 3, 4, 5)

    def test_single_value(self):
        b = boxplot_stats([7.5])
        assert (b["min"], b["q1"], b["median"], b["q3"], b["max"]) == (7.5,) * 5

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4, 5, 8, 20, 37):
            values = rng.standard_normal(n) * 10
            b = boxplot_stats(values)
            assert ((b["min"], b["q1"], b["median"], b["q3"], b["max"])
                    == oracle_five_numbers(values))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            boxplot_stats([])


def closed_form_symmetric3_eigs(a):
    """Trigonometric closed form for the eigenvalues of a symmetric 3x3."""
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    q = np.trace(a) / 3.0
    p2 = (a[0, 0] - q) ** 2 + (a[1, 1] - q) ** 2 + (a[2, 2] - q) ** 2 + 2 * p1
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = min(1.0, max(-1.0, np.linalg.det(b) / 2.0))
    phi = math.acos(r) / 3.0
    eig1 = q + 2 * p * math.cos(phi)
    eig3 = q + 2 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return eig1, 3 * q - eig1 - eig3, eig3


class TestPca2:
    def test_recovers_exact_two_dim_subspace(self):
        rng = np.random.default_rng(5)
        base = np.zeros((200, 5))
        base[:, 0] = rng.standard_normal(200) * 4.0
        base[:, 1] = rng.standard_normal(200) * 1.5
        points, _, components, _ = pca2(base)
        centered = base - base.mean(axis=0)
        residual = centered - points @ components.T
        assert np.abs(residual).max() < 1e-8

    def test_components_orthonormal(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((300, 6)) @ np.diag([5, 4, 3, 2, 1, 0.5])
        components = pca2(pts)[2]
        gram = components.T @ components
        assert np.abs(gram - np.eye(2)).max() < 1e-8

    def test_sign_convention(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((100, 4)) * [6, 3, 1, 0.5]
        components = pca2(pts)[2]
        for i in range(2):
            comp = components[:, i]
            assert comp[np.argmax(np.abs(comp))] > 0

    def test_isotropic_cloud_variance(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((2000, 4))
        points = pca2(pts)[0]
        per_coord = pts.var(axis=0, ddof=1).mean()
        proj_var = points.var(axis=0, ddof=1)
        assert np.abs(proj_var - per_coord).max() < 0.1 * per_coord

    def test_three_dim_eigenvalues_match_cubic_roots(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((500, 3)) * [3.0, 2.0, 1.0]
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered / (len(pts) - 1)
        roots = sorted(closed_form_symmetric3_eigs(cov), reverse=True)
        eigenvalues = pca2(pts)[3]
        assert eigenvalues[0] == pytest.approx(roots[0], rel=1e-9)
        assert eigenvalues[1] == pytest.approx(roots[1], rel=1e-9)

    def test_projection_variance_beats_random_frames(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((400, 6)) * [5, 4, 3, 2, 1, 0.5]
        points = pca2(pts)[0]
        centered = pts - pts.mean(axis=0)
        best = points.var(axis=0, ddof=1).sum()
        for _ in range(100):
            frame, _ = np.linalg.qr(rng.standard_normal((6, 2)))
            random_var = (centered @ frame).var(axis=0, ddof=1).sum()
            assert best >= random_var - 1e-10

    def test_extra_points_share_centering(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((50, 3)) * [4, 2, 1] + [10, -5, 3]
        extras = pts[:4].copy()
        points, projected_extras, _, _ = pca2(pts, extra_points=extras)
        assert np.allclose(projected_extras, points[:4], atol=1e-12)

    def test_rank_deficient_rejected(self):
        line = np.outer(np.arange(10.0), [1.0, 2.0, 3.0])  # rank-1 cloud
        with pytest.raises(ValueError, match="nonzero eigenvalues"):
            pca2(line)

    def test_extra_points_of_another_width_rejected(self):
        pts = np.random.default_rng(13).standard_normal((10, 3))
        with pytest.raises(ValueError, match="extra_points must be"):
            pca2(pts, extra_points=np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(2, 3), (5, 1)], ids=["two-rows", "one-column"])
    def test_too_small_rejected(self, shape):
        with pytest.raises(ValueError, match="points must be"):
            pca2(np.arange(np.prod(shape), dtype=float).reshape(shape) ** 2)

    @pytest.mark.filterwarnings("error")  # refused without a warning first
    def test_overflowing_covariance_rejected(self):
        # finite points whose squares, summed over rows, overflow the covariance
        pts = np.random.default_rng(12).standard_normal((50, 3)) * 1e160
        with pytest.raises(ValueError, match="covariance of the points is not finite"):
            pca2(pts)


class TestPredictionsIo:
    def test_round_trip(self, tmp_path):
        records = Predictions(confidence=[0.123456789012345, 1.0, 1e-17],
                              predicted_label=[3, 0, 2], true_label=[3, 9, -1],
                              is_ood=[False, False, True])
        path = tmp_path / "predictions.csv"
        write_predictions(path, records)
        loaded = read_predictions(path)
        assert len(loaded) == 3
        for column in ("confidence", "predicted_label", "true_label", "is_ood"):
            assert getattr(loaded, column).tolist() == getattr(records, column).tolist()
        assert loaded.is_correct.tolist() == [True, False, False]

    def test_bytes_match_a_string_label_column_across_blocks(self, tmp_path):
        n = CSV_BLOCK_ROWS + 500
        rng = np.random.default_rng(5)
        is_ood = rng.random(n) < 0.3
        labels = rng.integers(0, 1000, n)
        labels[:2], is_ood[:2] = (0, 999), False
        records = Predictions(rng.random(n), rng.integers(0, 1000, n),
                              np.where(is_ood, -1, labels), is_ood)
        path, oracle = tmp_path / "predictions.csv", tmp_path / "oracle.csv"
        write_predictions(path, records)
        write_csv(oracle, {"confidence": records.confidence,
                           "predicted_label": records.predicted_label,
                           "true_label": np.where(is_ood, "", records.true_label.astype(str)),
                           "is_ood": records.is_ood})
        assert path.read_bytes() == oracle.read_bytes()
        loaded = read_predictions(path)
        for column in ("confidence", "predicted_label", "true_label", "is_ood"):
            assert np.array_equal(getattr(loaded, column), getattr(records, column))

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            read_predictions(path)

    ROW_ERRORS = [
        ("0.5,1,2,0,7", "line 3: expected 4 columns"),
        ("0.5,1,2", "line 3: expected 4 columns"),
        ("0.5,1,2,2", "line 3: is_ood must be 0 or 1"),
        ("0.5,1,,0", "line 3: true_label must be empty"),
        ("0.5,1,4,1", "line 3: true_label must be empty"),
        ("1.5,1,2,0", "line 3: confidence"),
        ("nan,1,2,0", "line 3: confidence"),
        ("-0.1,1,,1", "line 3: confidence"),
        ("0.5,x,2,0", "line 3"),
    ]

    @pytest.mark.parametrize("row,message", ROW_ERRORS)
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"confidence,predicted_label,true_label,is_ood\n0.25,0,0,0\n{row}\n")
        with pytest.raises(ValueError, match=message) as info:
            read_predictions(path)
        assert str(path) in str(info.value)


class TestPredictions:
    @pytest.mark.parametrize("predicted, true, name", [
        ([1.9], [0], "predicted_label"), ([1], [0.2], "true_label"),
        (["1"], [0], "predicted_label"),
    ], ids=["float-predicted", "float-true", "str-predicted"])
    def test_labels_that_are_not_integers_are_refused(self, predicted, true, name):
        dtype = np.asarray(predicted if name == "predicted_label" else true).dtype
        with pytest.raises(ValueError) as info:
            Predictions([0.5], predicted, true, [False])
        assert str(info.value) == f"{name} must be integers, got dtype {dtype}"

    @pytest.mark.parametrize("name", ["predicted_label", "true_label"])
    def test_unsigned_labels_above_the_int64_range_are_refused_as_given(self, name):
        """Once wrapped: 2^63 + 5 was stored as label -9223372036854775803."""
        big = np.array([2 ** 63 + 5], np.uint64)
        columns = {"predicted_label": [0], "true_label": [0], name: big}
        with pytest.raises(ValueError) as info:
            Predictions([0.5], columns["predicted_label"], columns["true_label"], [False])
        assert str(info.value) == f"{name} value 9223372036854775813 does not fit int64"

    def test_empty_columns_may_be_float(self):
        p = Predictions((), (), (), ())
        assert p.predicted_label.dtype == p.true_label.dtype == np.int64 and len(p) == 0

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            Predictions([0.5, 0.5], [0], [0, 0], [False, False])

    def test_ood_rows_never_correct(self):
        p = Predictions([0.5, 0.5], [3, -1], [3, -1], [False, True])
        assert p.is_correct.tolist() == [True, False]

    FIELDS = ["confidence", "predicted_label", "true_label", "is_ood"]

    @pytest.mark.parametrize("field", FIELDS)
    def test_a_field_cannot_be_reassigned(self, field):
        """Checked once, when built: a reassigned confidence of 2.0 was once accepted."""
        p = Predictions.from_scores([0.5, 0.75], [1, 0], [1, 1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, field, getattr(p, field))

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("make", [
        lambda: Predictions([0.5, 0.75], [1, 0], [1, 1], [False, False]),
        lambda: Predictions.from_scores(np.array([0.5, 0.75]), np.array([1, 0])),
        lambda: Predictions.concatenate([preds([rec(0.5)]), preds([rec(0.75, ood=True)])]),
        lambda: preds([rec(0.5), rec(0.75), rec(0.25)])[np.array([True, True, False])],
    ], ids=["lists", "from_scores", "concatenate", "mask"])
    def test_a_column_cannot_be_written(self, make, field):
        p = make()
        with pytest.raises(ValueError, match="read-only"):
            getattr(p, field)[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            getattr(p, field)[:1][...] = 0  # and so is a view of it

    def test_a_write_into_the_source_columns_does_not_reach_it(self):
        columns = [np.array([0.5, 0.75]), np.array([1, 0]), np.array([1, -1]),
                   np.array([False, True])]
        p = Predictions(*columns)
        for column, value in zip(columns, (2.0, 99, 99, False)):
            column[1] = value
        assert [getattr(p, f).tolist() for f in self.FIELDS] == [
            [0.5, 0.75], [1, 0], [1, -1], [False, True]]
