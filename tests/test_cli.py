import json

import numpy as np
import pytest

from ovabench.cli import main
from ovabench.nncore import ModelParams, init_params, load_checkpoint, save_checkpoint


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


def test_run_all_tree_does_not_depend_on_out(tmp_path, config_file, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run-all", "--config", str(config_file), "--out", "relative"]) == 0
    assert main(["run-all", "--config", str(config_file), "--out", str(tmp_path / "abs")]) == 0
    assert _tree(tmp_path / "relative") == _tree(tmp_path / "abs")


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


def test_landscape_refuses_non_finite_confidence(tmp_path, config_file, capsys):
    params = init_params([2, 16, 16], 10, head_biases=True, seed=5)
    params.flat *= 1e160  # every value finite; the body overflows on the grid
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, params, "softmax", seed=5)
    code = main(["landscape", "--config", str(config_file), "--checkpoint", str(path),
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "grid point" in err
    assert "Traceback" not in err
    assert not (tmp_path / "softmax" / "landscape.csv").exists()


CI_SMALL = {"data": {"n_per_class": 30}, "optim": {"steps": 50, "batch_size": 16},
            "landscape": {"resolution": 10}, "metrics": {"num_thresholds": 11},
            "ood": {"n": 30}}


@pytest.fixture(scope="module")
def overflowing_dm(tmp_path_factory):
    """The small CI config, and a `train --head dm --seed 1` checkpoint on it
    with every value scaled by 1e160 (the body overflows on every input) or by
    1e100 (the embeddings are finite, their squares are not)."""
    root = tmp_path_factory.mktemp("overflow")
    config = root / "small.json"
    config.write_text(json.dumps(CI_SMALL))
    assert main(["train", "--head", "dm", "--config", str(config), "--seed", "1",
                 "--out", str(root / "trained")]) == 0
    params, head, seed = load_checkpoint(root / "trained" / "dm" / "checkpoint.json")
    paths = {}
    for scale in (1e160, 1e100):
        paths[scale] = root / f"scaled_{scale:g}.json"
        save_checkpoint(paths[scale], ModelParams(params.flat * scale, params.layout), head,
                        seed)
    return config, paths


@pytest.mark.filterwarnings("error")  # a warning would be a second line on stderr
@pytest.mark.parametrize("stage, rows, scale", [
    ("evaluate", "test row 0", 1e160), ("sweep", "test row 0", 1e160),
    ("landscape", "grid point 0", 1e160), ("centers", "training row 0", 1e160),
    ("centers", "training row 0", 1e100)])
def test_overflowing_model_is_refused_in_one_line(tmp_path, capsys, overflowing_dm,
                                                  stage, rows, scale):
    config, paths = overflowing_dm
    capsys.readouterr()
    code = main([stage, "--config", str(config), "--seed", "1",
                 "--checkpoint", str(paths[scale]), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: the model's ") and err.count("\n") == 1
    assert f"are not finite for {rows} (input [" in err
    # nothing but the head directory the CLI made: no shift/ from a refused sweep
    assert [p.relative_to(tmp_path).as_posix() for p in sorted(tmp_path.rglob("*"))] \
        == ["out", "out/dm"]


@pytest.mark.parametrize("bad, field", [
    ('{"optim": {"steps": "10"}}', "optim.steps"),
    ('{"model": {"hidden": 16}}', "model.hidden"),
    ('{"data": {"n_per_class": 1.5}}', "data.n_per_class"),
    ('{"optim": {"learning_rate": NaN}}', "optim.learning_rate"),
    ('{"head": "bogus"}', "unknown config keys: ['head']"),
    ('{"ood": {"n": 0}}', "ood.n must be >= 1 or null, got 0"),
    ('{"optim": {"learning_rate": 1%s}}' % ("0" * 400), "optim.learning_rate"),
    ('{"data": {"n_per_class": 1%s}}' % ("0" * 30), "data.n_per_class"),
    ('{"optim": {"batch_size": 1000000000000}}', "optim.batch_size"),
    ('{"optim": {"steps": "%s"}}' % ("x" * 100000), "optim.steps"),
    ('{"sweep": {"kinds": ["%s"]}}' % ("x" * 100000), "sweep.kinds"),
    ('{"optim": {"%s": 1}}' % ("x" * 100000), "unknown keys in config section 'optim'"),
    ('{"ood": {"n": 10, "exclusion_radius": 1000}}', "ood.exclusion_radius"),
], ids=["str-int", "scalar-list", "float-int", "nan-float", "bad-head", "ood-n-zero",
        "huge-int-float", "huge-n-per-class", "huge-batch-size", "long-str-int",
        "long-sweep-kind", "long-key", "infeasible-ood-box"])
def test_mistyped_config_field_is_named(tmp_path, capsys, bad, field):
    path = tmp_path / "bad.json"
    path.write_text(bad)
    code = main(["train", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--head", "softmax"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err.encode()) <= 200
    assert field in err
    assert "Traceback" not in err


def test_malformed_checkpoint_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps({"format": "ovabench-checkpoint-v1", "head": "ova",
                                "seed": 0}))
    code = main(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err and "tensors" in err


@pytest.mark.parametrize("head, biases, message", [
    ("bogus", True, "head must be one of ['softmax', 'dm', 'ova', 'ova_dm'], got 'bogus'"),
    ("dm", True, "head 'dm' must not carry head_biases"),
    ("softmax", False, "head 'softmax' requires head_biases"),
], ids=["unknown-head", "distance-with-biases", "affine-without-biases"])
def test_checkpoint_head_mismatch_names_the_file(tmp_path, capsys, head, biases, message):
    params = ModelParams.from_arrays([np.eye(2)], [np.zeros(2)], np.zeros((2, 10)),
                                     np.zeros(10) if biases else None)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, params, head, seed=0)
    code = main(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"malformed checkpoint {path}: {message}" in err
    assert "Traceback" not in err


def test_checkpoint_of_another_head_names_the_file(tmp_path, capsys):
    params = ModelParams.from_arrays([np.eye(2)], [np.zeros(2)], np.zeros((2, 10)),
                                     np.zeros(10))
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, params, "softmax", seed=0)
    code = main(["evaluate", "--head", "dm", "--checkpoint", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (f"error: checkpoint {path} holds head 'softmax', "
                                       "expected 'dm'\n")


@pytest.mark.parametrize("argv", [
    ["run-all", "--head", "dm"],
    ["train", "--head", "softmax", "--checkpoint", "/nonexistent.json"],
    ["run-all", "--checkpoint", "/nonexistent.json"],
], ids=["run-all-head", "train-checkpoint", "run-all-checkpoint"])
def test_subcommand_refuses_flags_it_does_not_read(tmp_path, config_file, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([*argv, "--config", str(config_file), "--out", str(out)])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert err.startswith("usage: ") and "unrecognized arguments: " in err
    assert not out.exists()


def test_checkpoint_from_another_seed_is_refused(tmp_path, config_file, capsys):
    base = ["--config", str(config_file), "--out", str(tmp_path), "--head", "softmax"]
    assert main(["train", *base, "--seed", "1"]) == 0
    capsys.readouterr()
    code = main(["evaluate", *base])  # the config's seed is 5
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "seed 1" in err and "seed 5" in err
    assert "Traceback" not in err
    assert not (tmp_path / "softmax" / "metrics.json").exists()


@pytest.mark.parametrize("kind", ["invalid-json", "directory", "nested"])
def test_unreadable_config_names_the_path(tmp_path, capsys, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "nested":
        path.write_text("[" * 100000)
    else:
        path.write_text('{"optim": {"steps": 10},}')
    code = main(["train", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--head", "softmax"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot read config {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["checkpoint-is-a-directory", "run-all-out-is-a-file",
                                  "train-out-is-a-file", "out-of-memory"])
def test_os_and_memory_errors_fail_cleanly(tmp_path, config_file, capsys, monkeypatch, case):
    from ovabench import harness

    a_file = tmp_path / "a_file"
    a_file.write_text("")
    base = ["--config", str(config_file), "--head", "softmax"]
    argv = {"checkpoint-is-a-directory": ["evaluate", *base, "--checkpoint", str(tmp_path)],
            "run-all-out-is-a-file": ["run-all", "--config", str(config_file),
                                      "--out", str(a_file)],
            "train-out-is-a-file": ["train", *base, "--out", str(a_file)],
            "out-of-memory": ["train", *base, "--out", str(tmp_path / "out")]}[case]
    if case == "out-of-memory":
        def exhausted(cfg):
            raise MemoryError()
        monkeypatch.setattr(harness, "make_datasets", exhausted)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, message", [("truncated", "malformed checkpoint"),
                                           ("directory", "cannot read checkpoint"),
                                           ("nested", "malformed checkpoint")])
def test_unreadable_checkpoint_names_the_path(tmp_path, capsys, kind, message):
    path = tmp_path / "checkpoint.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "nested":
        path.write_text("[" * 100000)
    else:
        params = ModelParams.from_arrays([np.eye(2)], [np.zeros(2)], np.zeros((2, 10)),
                                         np.zeros(10))
        save_checkpoint(path, params, "softmax", seed=0)
        path.write_text(path.read_text()[:100])
    code = main(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {message} {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("change, tensor, have, want", [
    ({"data": {"num_classes": 5}}, "head_weights", "(16, 10)", "(16, 5)"),
    ({"model": {"hidden": [8]}}, "layers.0.weights", "(2, 16)", "(2, 8)"),
    ({"model": {"hidden": [16, 16, 16]}}, "layers.2.weights", "(none)", "(16, 16)"),
], ids=["fewer-classes", "narrower-body", "deeper-body"])
def test_checkpoint_that_does_not_fit_the_config_is_refused(tmp_path, config_file, capsys,
                                                             monkeypatch, change, tensor,
                                                             have, want):
    from ovabench import harness

    base = ["--out", str(tmp_path), "--head", "softmax"]
    assert main(["train", "--config", str(config_file), *base]) == 0
    capsys.readouterr()
    cfg = json.loads(config_file.read_text())
    for section, fields in change.items():
        cfg[section] = {**cfg.get(section, {}), **fields}
    other = tmp_path / "other.json"
    other.write_text(json.dumps(cfg))
    calls = []
    monkeypatch.setattr(harness, "make_datasets", lambda c: calls.append(c))
    code = main(["evaluate", "--config", str(other), *base])
    err = capsys.readouterr().err
    ckpt = tmp_path / "softmax" / "checkpoint.json"
    assert code == 1
    assert err == (f"error: checkpoint {ckpt} does not fit the config: "
                   f"{tensor} has shape {have}, the config needs {want}\n")
    assert calls == []  # refused before any data is generated
    assert not (tmp_path / "softmax" / "metrics.json").exists()
