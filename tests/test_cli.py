import json

import pytest

from ovabench.cli import main


@pytest.fixture()
def config_file(tmp_path):
    cfg = {
        "data": {"n_per_class": 20, "train_fraction": 0.5},
        "optim": {"steps": 40, "batch_size": 16},
        "landscape": {"resolution": 8},
        "metrics": {"num_thresholds": 11},
        "ood": {"n": 25},
        "seed": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_then_evaluate_sweep_landscape_centers(tmp_path, config_file, capsys):
    out = tmp_path / "artifacts"
    base = ["--config", str(config_file), "--out", str(out), "--head", "ova_dm"]
    assert main(["train", *base]) == 0
    assert (out / "ova_dm" / "checkpoint.json").exists()
    assert main(["evaluate", *base]) == 0
    assert (out / "ova_dm" / "metrics.json").exists()
    assert main(["sweep", *base]) == 0
    assert (out / "ova_dm" / "sweep.csv").exists()
    assert main(["landscape", *base]) == 0
    assert (out / "ova_dm" / "landscape.pgm").exists()
    assert main(["centers", *base]) == 0
    assert (out / "ova_dm" / "centers.csv").exists()
    captured = capsys.readouterr()
    assert "final train accuracy" in captured.out


def test_run_all_exit_code_and_tree(tmp_path, config_file):
    out = tmp_path / "all"
    assert main(["run-all", "--config", str(config_file), "--out", str(out)]) == 0
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["completed"] is True
    assert set(manifest["stages"]) == {"softmax", "dm", "ova", "ova_dm"}


def test_evaluate_without_checkpoint_fails_cleanly(tmp_path, config_file, capsys):
    code = main(["evaluate", "--config", str(config_file),
                 "--out", str(tmp_path / "none"), "--head", "softmax"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_head_flag_is_validated(tmp_path, config_file):
    with pytest.raises(SystemExit):
        main(["train", "--config", str(config_file), "--out", str(tmp_path),
              "--head", "bogus"])


def test_seed_override_changes_artifacts(tmp_path, config_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = ["train", "--config", str(config_file), "--head", "softmax"]
    assert main([*base, "--out", str(out_a), "--seed", "5"]) == 0
    assert main([*base, "--out", str(out_b), "--seed", "6"]) == 0
    a = (out_a / "softmax" / "checkpoint.json").read_bytes()
    b = (out_b / "softmax" / "checkpoint.json").read_bytes()
    assert a != b


def test_missing_head_reports_error(tmp_path, config_file, capsys):
    code = main(["train", "--config", str(config_file), "--out", str(tmp_path)])
    assert code == 1
    assert "head" in capsys.readouterr().err


HEADS = ("softmax", "dm", "ova", "ova_dm")


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_stage_commands_write_the_run_all_files(tmp_path, config_file):
    all_out, staged_out = tmp_path / "all", tmp_path / "staged"
    assert main(["run-all", "--config", str(config_file), "--out", str(all_out)]) == 0
    for head in HEADS:
        stages = ["train", "evaluate", "sweep", "landscape"]
        if head in ("dm", "ova_dm"):
            stages.append("centers")
        for stage in stages:
            assert main([stage, "--config", str(config_file), "--out", str(staged_out),
                         "--head", head]) == 0
    for head in HEADS:
        expected = _tree(all_out / head)
        assert expected
        assert _tree(staged_out / head) == expected, head


def test_landscape_does_not_generate_datasets(tmp_path, config_file, monkeypatch):
    from ovabench import harness

    base = ["--config", str(config_file), "--out", str(tmp_path), "--head", "dm"]
    assert main(["train", *base]) == 0
    calls = []
    original = harness.make_datasets
    monkeypatch.setattr(harness, "make_datasets",
                        lambda cfg: calls.append(cfg) or original(cfg))
    assert main(["landscape", *base]) == 0
    assert (tmp_path / "dm" / "landscape.csv").exists()
    assert calls == []
    assert main(["centers", *base]) == 0
    assert len(calls) == 1  # the counter does see stages that need data
