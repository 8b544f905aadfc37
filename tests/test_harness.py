import json

import numpy as np
import pytest

from ovabench.data import Dataset, gen_ring
from ovabench.harness import (ExperimentConfig, TrainingDiverged, centers_report,
                              evaluate, landscape, make_datasets, run_all, shift_sweep,
                              train, write_centers_csv, write_landscape_csv,
                              write_landscape_pgm)
from ovabench.heads import HeadKind, predict, probabilities, logits
from ovabench.metrics import auroc_auprc, ece, read_predictions
from ovabench.nncore import DenseLayer, ModelParams, forward

ALL_HEADS = list(HeadKind)


def tiny_config(seed=0, **optim):
    cfg = ExperimentConfig(seed=seed)
    cfg.data.n_per_class = 24
    cfg.optim.steps = optim.pop("steps", 60)
    cfg.optim.batch_size = 16
    cfg.optim.learning_rate = optim.pop("learning_rate", 0.01)
    cfg.landscape.resolution = 9
    cfg.metrics.num_thresholds = 11
    cfg.ood.n = 30
    return cfg


def identity_body_model(head_weights, head_biases=None):
    return ModelParams(layers=[DenseLayer(np.eye(2), np.zeros(2))],
                       head_weights=np.asarray(head_weights, dtype=np.float64),
                       head_biases=head_biases)


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_config(seed=5)
        cfg.head = HeadKind.OVA_DISTANCE
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_head_rejected_before_any_training(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"head": "argmax_of_vibes"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict({"optimizer": {"lr": 1.0}})
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict({"optim": {"lr": 1.0}})

    def test_invalid_values_rejected(self):
        cfg = tiny_config()
        cfg.optim.learning_rate = -1.0
        with pytest.raises(ValueError):
            cfg.validate()


class TestTrain:
    def test_zero_steps_distance_head_is_chance(self):
        cfg = tiny_config(steps=0)
        result = train(cfg, head=HeadKind.OVA_DISTANCE)
        # zero centers -> all logits tie -> argmax picks class 0 -> exactly 1/K
        assert result.final_accuracy == pytest.approx(0.1, abs=1e-12)

    def test_zero_steps_affine_head_near_chance(self):
        cfg = tiny_config(steps=0)
        result = train(cfg, head=HeadKind.SOFTMAX_AFFINE)
        assert result.final_accuracy < 0.35

    def test_checkpoint_and_log_written(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, head=HeadKind.SOFTMAX_AFFINE, out_dir=tmp_path)
        assert (tmp_path / "checkpoint.json").exists()
        log_lines = (tmp_path / "train_log.csv").read_text().splitlines()
        assert log_lines[0] == "step,loss,accuracy"
        assert len(log_lines) == 1 + len(result.log)

    def test_deterministic_checkpoints(self, tmp_path):
        cfg = tiny_config(seed=21)
        train(cfg, head=HeadKind.OVA_AFFINE, out_dir=tmp_path / "a")
        train(cfg, head=HeadKind.OVA_AFFINE, out_dir=tmp_path / "b")
        assert (tmp_path / "a/checkpoint.json").read_bytes() \
            == (tmp_path / "b/checkpoint.json").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_reports_step_and_head(self):
        cfg = tiny_config(learning_rate=50.0, steps=400)
        with pytest.raises(TrainingDiverged, match=r"step \d+ for head 'softmax'"):
            train(cfg, head=HeadKind.SOFTMAX_AFFINE)

    def test_requires_head(self):
        with pytest.raises(ValueError, match="head"):
            train(tiny_config())

    def test_random_distance_init_option(self):
        cfg = tiny_config(steps=0)
        cfg.model.distance_init = "random"
        random_init = train(cfg, head=HeadKind.OVA_DISTANCE)
        assert random_init.params.head_weights.any()
        cfg.model.distance_init = "zeros"
        zero_init = train(cfg, head=HeadKind.OVA_DISTANCE)
        assert not zero_init.params.head_weights.any()


class TestEvaluate:
    def test_forced_correct_labels(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, head=HeadKind.SOFTMAX_AFFINE)
        _, test_d, _ = make_datasets(cfg)
        pred, _ = predict(probabilities(
            HeadKind.SOFTMAX_AFFINE,
            logits(HeadKind.SOFTMAX_AFFINE, result.params,
                   forward(result.params, test_d.features).embedding)))
        forced = Dataset(features=test_d.features, labels=pred,
                         num_classes=test_d.num_classes, seed=test_d.seed)
        ev = evaluate(result.params, HeadKind.SOFTMAX_AFFINE, forced, None, cfg)
        assert ev.summary["accuracy"] == 1.0
        # with accuracy forced to 1 per bin, ece reduces to the weighted gap to 1
        table = ev.calibration
        expected = sum((table.counts[b] / table.counts.sum())
                       * abs(1.0 - table.mean_confidence[b])
                       for b in range(table.num_bins) if table.counts[b])
        assert ev.summary["ece"] == pytest.approx(expected, abs=1e-12)

    def test_empty_ood_omits_ranking(self):
        cfg = tiny_config()
        result = train(cfg, head=HeadKind.OVA_DISTANCE)
        _, test_d, _ = make_datasets(cfg)
        ev = evaluate(result.params, HeadKind.OVA_DISTANCE, test_d, None, cfg)
        assert "auroc" not in ev.summary and "auprc" not in ev.summary
        assert "ece" in ev.summary and "accuracy" in ev.summary
        assert ev.ranking is None

    def test_summary_recomputable_from_csv(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, head=HeadKind.OVA_AFFINE)
        _, test_d, ood = make_datasets(cfg)
        ev = evaluate(result.params, HeadKind.OVA_AFFINE, test_d, ood, cfg,
                      out_dir=tmp_path)
        records = read_predictions(tmp_path / "predictions.csv")
        id_records = records[~records.is_ood]
        acc = float(np.mean(id_records.is_correct))
        ece_value, _ = ece(id_records, cfg.metrics.num_bins)
        ranking = auroc_auprc(records.confidence, ~records.is_ood)
        assert abs(acc - ev.summary["accuracy"]) < 1e-12
        assert abs(ece_value - ev.summary["ece"]) < 1e-12
        assert abs(ranking.auroc - ev.summary["auroc"]) < 1e-12
        assert abs(ranking.auprc - ev.summary["auprc"]) < 1e-12

    def test_artifact_files_written(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, head=HeadKind.SOFTMAX_DISTANCE)
        _, test_d, ood = make_datasets(cfg)
        evaluate(result.params, HeadKind.SOFTMAX_DISTANCE, test_d, ood, cfg,
                 out_dir=tmp_path)
        for name in ("predictions.csv", "calibration.csv", "curve.csv",
                     "histograms.csv", "metrics.json"):
            assert (tmp_path / name).exists()


class TestLandscape:
    def test_ova_distance_confidence_one_at_center(self):
        cfg = tiny_config()
        cfg.landscape.resolution = 101  # integer grid over +-50
        model = identity_body_model(np.array([[10.0, -20.0], [-3.0, 7.0]]).T)
        grid = landscape(model, HeadKind.OVA_DISTANCE, cfg)
        xi = int(np.argwhere(np.isclose(grid.x_coords, 10.0))[0][0])
        yi = int(np.argwhere(np.isclose(grid.y_coords, -20.0))[0][0])
        assert grid.confidence[yi, xi] == 1.0
        assert grid.labels[yi, xi] == 0

    def test_softmax_probabilities_sum_to_one_on_grid(self):
        cfg = tiny_config()
        result = train(cfg, head=HeadKind.SOFTMAX_AFFINE)
        grid_pts = np.column_stack([g.ravel() for g in np.meshgrid(
            np.linspace(-50, 50, 9), np.linspace(50, -50, 9))])
        emb = forward(result.params, grid_pts).embedding
        p = probabilities(HeadKind.SOFTMAX_AFFINE,
                          logits(HeadKind.SOFTMAX_AFFINE, result.params, emb))
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9

    def test_grid_layout_row0_is_ymax(self):
        cfg = tiny_config()
        model = identity_body_model(np.zeros((2, 3)))
        grid = landscape(model, HeadKind.OVA_DISTANCE, cfg)
        assert grid.y_coords[0] == 50.0
        assert grid.y_coords[-1] == -50.0
        assert grid.confidence.shape == (9, 9)

    def test_csv_and_pgm_outputs(self, tmp_path):
        cfg = tiny_config()
        model = identity_body_model(np.array([[0.0, 0.0]]).T)
        grid = landscape(model, HeadKind.OVA_DISTANCE, cfg)
        write_landscape_csv(tmp_path / "landscape.csv", grid)
        write_landscape_pgm(tmp_path / "landscape.pgm", grid)
        lines = (tmp_path / "landscape.csv").read_text().splitlines()
        assert lines[0] == "x,y,confidence,label"
        assert len(lines) == 1 + 81
        raw = (tmp_path / "landscape.pgm").read_bytes()
        assert raw.startswith(b"P5\n9 9\n255\n")
        assert len(raw) == len(b"P5\n9 9\n255\n") + 81
        # center pixel is the class center: confidence 1 -> 255
        center = raw[len(b"P5\n9 9\n255\n") + 4 * 9 + 4]
        assert center == 255


class TestCentersReport:
    def test_affine_head_refused(self):
        cfg = tiny_config()
        model = identity_body_model(np.zeros((2, 3)), head_biases=np.zeros(3))
        data = gen_ring(num_classes=3, n_per_class=5, seed=1)
        with pytest.raises(ValueError, match="center"):
            centers_report(model, HeadKind.SOFTMAX_AFFINE, data)

    def test_forced_alignment_is_zero(self):
        data = gen_ring(num_classes=4, n_per_class=30, seed=2)
        emb_means = np.stack([data.features[data.labels == c].mean(axis=0)
                              for c in range(4)])
        model = identity_body_model(emb_means.T)
        report = centers_report(model, HeadKind.OVA_DISTANCE, data)
        assert np.abs(report.alignment_errors).max() < 1e-12

    def test_csv_row_count_is_n_plus_k(self, tmp_path):
        data = gen_ring(num_classes=4, n_per_class=30, seed=3)
        model = identity_body_model(np.random.default_rng(0).standard_normal((2, 4)))
        report = centers_report(model, HeadKind.SOFTMAX_DISTANCE, data)
        write_centers_csv(tmp_path / "centers.csv", report)
        lines = (tmp_path / "centers.csv").read_text().splitlines()
        assert len(lines) == 1 + len(data) + 4


class TestShiftSweep:
    def test_clean_row_matches_direct_evaluation(self):
        cfg = tiny_config()
        result = train(cfg, head=HeadKind.SOFTMAX_AFFINE)
        _, test_d, _ = make_datasets(cfg)
        sweep = shift_sweep(result.params, HeadKind.SOFTMAX_AFFINE, test_d, cfg)
        ev = evaluate(result.params, HeadKind.SOFTMAX_AFFINE, test_d, None, cfg)
        clean = sweep.rows[0]
        assert clean.kind == "none" and clean.intensity == 0
        assert clean.accuracy == pytest.approx(ev.summary["accuracy"], abs=1e-12)
        assert clean.ece == pytest.approx(ev.summary["ece"], abs=1e-12)

    def test_constant_predictor_invariant_to_rotation(self):
        cfg = tiny_config()
        cfg.sweep.kinds = ["rotation"]
        model = identity_body_model(np.zeros((2, 10)))  # all logits tie -> always class 0
        _, test_d, _ = make_datasets(cfg)
        sweep = shift_sweep(model, HeadKind.OVA_DISTANCE, test_d, cfg)
        accs = {row.accuracy for row in sweep.rows}
        assert len(accs) == 1  # rotation preserves both labels and the prediction

    def test_stats_cover_each_intensity(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, head=HeadKind.OVA_DISTANCE)
        _, test_d, _ = make_datasets(cfg)
        sweep = shift_sweep(result.params, HeadKind.OVA_DISTANCE, test_d, cfg,
                            out_dir=tmp_path)
        assert set(sweep.stats) == {1, 2, 3, 4, 5}
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep_stats.csv").exists()
        dumps = list((tmp_path / "shift").glob("predictions_*.csv"))
        assert len(dumps) == 1 + 2 * 5  # clean + kinds x intensities

    def test_sweep_rows_recomputable_from_dumps(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, head=HeadKind.SOFTMAX_DISTANCE)
        _, test_d, _ = make_datasets(cfg)
        sweep = shift_sweep(result.params, HeadKind.SOFTMAX_DISTANCE, test_d, cfg,
                            out_dir=tmp_path)
        for row in sweep.rows:
            dump = tmp_path / "shift" / f"predictions_{row.kind}_{row.intensity}.csv"
            records = read_predictions(dump)
            acc = float(np.mean(records.is_correct))
            value, _ = ece(records, cfg.metrics.num_bins)
            assert abs(acc - row.accuracy) < 1e-12
            assert abs(value - row.ece) < 1e-12


EXPECTED_EVAL_FILES = ("metrics.json", "predictions.csv", "calibration.csv",
                       "curve.csv", "sweep.csv", "landscape.csv")


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runall")
    cfg = tiny_config(seed=3)
    outcome = run_all(cfg, out)
    return cfg, outcome, out


class TestRunAll:
    def test_all_stages_ok(self, completed_run):
        _, outcome, _ = completed_run
        assert outcome.ok
        for head, stages in outcome.manifest["stages"].items():
            assert all(state == "ok" for state in stages.values()), (head, stages)

    def test_directory_contract(self, completed_run):
        _, _, out = completed_run
        for head in ALL_HEADS:
            head_dir = out / head.value
            for name in EXPECTED_EVAL_FILES:
                assert (head_dir / name).exists(), (head.value, name)
            assert (head_dir / "checkpoint.json").exists()
            assert (head_dir / "landscape.pgm").exists()
            assert (head_dir / "centers.csv").exists() == head.is_distance
        assert (out / "comparison.csv").exists()
        assert (out / "MANIFEST.json").exists()
        assert (out / "data" / "train.csv").exists()
        assert (out / "data" / "test.meta.json").exists()

    def test_comparison_matches_per_head_summaries(self, completed_run):
        _, _, out = completed_run
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            head, _, acc, ece_s, auroc_s, _ = row.split(",")
            summary = json.loads((out / head / "metrics.json").read_text())
            assert abs(float(acc) - summary["accuracy"]) < 1e-12
            assert abs(float(ece_s) - summary["ece"]) < 1e-12
            assert abs(float(auroc_s) - summary["auroc"]) < 1e-12

    def test_rerun_bitwise_identical(self, completed_run, tmp_path):
        cfg, _, out = completed_run
        second = run_all(cfg, tmp_path / "again")
        assert second.ok
        for head in ALL_HEADS:
            for name in ("metrics.json", "checkpoint.json"):
                a = (out / head.value / name).read_bytes()
                b = (tmp_path / "again" / head.value / name).read_bytes()
                assert a == b, (head.value, name)
        assert (out / "comparison.csv").read_bytes() \
            == (tmp_path / "again" / "comparison.csv").read_bytes()

    def test_invalid_config_rejected_upfront(self, tmp_path):
        cfg = tiny_config()
        cfg.landscape.resolution = 1
        with pytest.raises(ValueError):
            run_all(cfg, tmp_path / "never")
        assert not (tmp_path / "never").exists()

    def test_stage_failure_recorded_and_artifacts_retained(self, tmp_path, monkeypatch):
        import ovabench.harness as harness_mod

        def broken_landscape(params, head, config):
            raise RuntimeError("synthetic stage failure")

        monkeypatch.setattr(harness_mod, "landscape", broken_landscape)
        outcome = run_all(tiny_config(), tmp_path / "partial")
        assert not outcome.ok
        manifest = json.loads((tmp_path / "partial" / "MANIFEST.json").read_text())
        assert manifest["completed"] is False
        for head, stages in manifest["stages"].items():
            assert stages["landscape"].startswith("failed: synthetic")
            assert stages["train"] == "ok"
            if head in ("dm", "ova_dm"):
                assert stages["centers"] == "skipped"
        # artifacts from the stages that ran are still on disk
        assert (tmp_path / "partial" / "softmax" / "metrics.json").exists()
        assert not (tmp_path / "partial" / "softmax" / "landscape.csv").exists()
