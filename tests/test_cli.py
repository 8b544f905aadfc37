import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ovabench
from ovabench.cli import main
from ovabench.data import CORRUPTION_KINDS
from ovabench.harness import STAGES
from ovabench.nncore import ModelParams, init_params, load_checkpoint, save_checkpoint

from gradcheck import params_from_arrays


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


def test_package_version_is_the_project_version():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert ovabench.__version__ == re.search(r'^version = "(.+)"$', pyproject, re.M).group(1)


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


def test_run_all_exit_code_and_tree(tmp_path, config_file, capsys):
    out = tmp_path / "all"
    assert main(["run-all", "--config", str(config_file), "--out", str(out)]) == 0
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["completed"] is True
    assert set(manifest["stages"]) == {"softmax", "dm", "ova", "ova_dm"}
    # one line per head, its stages in run order, then where the files are
    affine, distance = ("train=ok, evaluate=ok, sweep=ok, landscape=ok",
                        "train=ok, evaluate=ok, sweep=ok, landscape=ok, centers=ok")
    assert capsys.readouterr().out == (f"softmax: {affine}\ndm: {distance}\nova: {affine}\n"
                                       f"ova_dm: {distance}\nartifacts in {out}\n")


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


def test_one_layer_body_runs_end_to_end(tmp_path, config_file):
    config_file.write_text(json.dumps({**json.loads(config_file.read_text()),
                                       "model": {"hidden": [16]}}))
    out, base = tmp_path / "one_layer", ["--config", str(config_file)]
    assert main(["run-all", *base, "--out", str(out)]) == 0
    stages = json.loads((out / "MANIFEST.json").read_text())["stages"]
    assert sorted(stages) == sorted(HEADS)
    for head, states in stages.items():
        assert set(states.values()) == {"ok"}, (head, states)

    params = init_params([2, 16], 10, head_biases=True, seed=1)
    save_checkpoint(tmp_path / "checkpoint.json", params, "softmax", 5)
    loaded, _, _ = load_checkpoint(tmp_path / "checkpoint.json")
    assert loaded.layout.names == params.layout.names
    assert np.array_equal(loaded.flat, params.flat)

    metrics = (out / "ova_dm" / "metrics.json").read_bytes()
    assert main(["evaluate", *base, "--out", str(out), "--head", "ova_dm"]) == 0
    assert (out / "ova_dm" / "metrics.json").read_bytes() == metrics


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


@pytest.mark.parametrize("head, hidden, message", [
    ("softmax", [16, 16], "head 'softmax' has no class-center semantics"),
    ("dm", [16, 1], "model.hidden ends in 1"),
], ids=["affine-head", "narrow-embedding"])
def test_centers_refusals_do_not_generate_datasets(tmp_path, config_file, capsys, monkeypatch,
                                                   head, hidden, message):
    from ovabench import harness

    cfg = {**json.loads(config_file.read_text()), "model": {"hidden": hidden}}
    config_file.write_text(json.dumps(cfg))
    params = init_params([2, *hidden], 10, head_biases=head == "softmax", seed=5)
    (tmp_path / head).mkdir()
    save_checkpoint(tmp_path / head / "checkpoint.json", params, head, seed=5)
    calls = []
    monkeypatch.setattr(harness, "make_datasets", lambda c: calls.append(c))
    code = main(["centers", "--config", str(config_file), "--out", str(tmp_path),
                 "--head", head])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert calls == []  # refused before any data is generated
    assert not (tmp_path / head / "centers.csv").exists()


def test_centers_refuses_fewer_than_three_training_rows(tmp_path, capsys, monkeypatch):
    from ovabench import harness

    config = tmp_path / "two_rows.json"
    config.write_text(json.dumps({"data": {"num_classes": 2, "n_per_class": 1,
                                           "train_fraction": 1.0}, "optim": {"steps": 5}}))
    base = ["--config", str(config), "--out", str(tmp_path), "--head", "dm"]
    assert main(["train", *base]) == 0
    calls = []
    monkeypatch.setattr(harness, "make_datasets", lambda c: calls.append(c))
    assert main(["centers", *base]) == 1
    assert capsys.readouterr().err == (
        "error: data.num_classes 2, data.n_per_class 1 and data.train_fraction 1.0 "
        "leave 2 training rows; centers need >= 3\n")
    assert calls == []  # refused before any data is generated or scored
    assert not (tmp_path / "dm" / "centers.csv").exists()


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
    assert err.endswith(f"; checkpoint {paths[scale]}\n")
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
    ('{"data": {"n_per_class": 5, "num_classes": 2, "train_fraction": 0.1}}',
     "data.train_fraction 0.1 of data.n_per_class 5"),
], ids=["str-int", "scalar-list", "float-int", "nan-float", "bad-head", "ood-n-zero",
        "huge-int-float", "huge-n-per-class", "huge-batch-size", "long-str-int",
        "long-sweep-kind", "long-key", "infeasible-ood-box", "empty-split"])
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
    ("bogus", True, "malformed checkpoint {path}: head must be one of "
                    "['softmax', 'dm', 'ova', 'ova_dm'], got 'bogus'"),
    ("dm", True, "checkpoint {path} does not fit the config: head_biases has shape (10,), "
                 "the config needs (none)"),
    ("softmax", False, "checkpoint {path} does not fit the config: head_biases has shape "
                       "(none), the config needs (10,)"),
], ids=["unknown-head", "distance-with-biases", "affine-without-biases"])
def test_checkpoint_head_mismatch_names_the_file(tmp_path, capsys, head, biases, message):
    params = init_params([2, 16, 16], 10, head_biases=biases, seed=0)  # the default config's
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, params, head, seed=0)
    code = main(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert message.format(path=path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("steps, start", [  # the batch loss, or the last log evaluation
    (50, "step 7 for head 'softmax': non-finite loss for batch index 0\n"),
    (6, "step 6 for head 'softmax': the model's logits are not finite for training row 0 "
        "(input ["),
], ids=["steps-50", "steps-6"])
def test_diverging_train_prints_one_error_line_and_no_warnings(tmp_path, steps, start):
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({"optim": {"learning_rate": 50, "steps": steps,
                                            "batch_size": 16},
                                  "data": {"n_per_class": 30}, "landscape": {"resolution": 10}}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # a fresh process: pytest would capture the warnings of an in-process run
    result = subprocess.run([sys.executable, "-m", "ovabench.cli", "train", "--head", "softmax",
                             "--config", str(config), "--out", str(tmp_path / "out")],
                            capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 1
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith(f"error: training diverged at {start}")


def test_checkpoint_of_another_head_names_the_file(tmp_path, capsys):
    params = params_from_arrays([np.eye(2)], [np.zeros(2)], np.zeros((2, 10)),
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
        params = params_from_arrays([np.eye(2)], [np.zeros(2)], np.zeros((2, 10)),
                                    np.zeros(10))
        save_checkpoint(path, params, "softmax", seed=0)
        path.write_text(path.read_text()[:100])
    code = main(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {message} {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _extra_entry(doc):
    doc["tensors"].append({"name": "foo", "shape": [1], "data": [0.0]})


def _beyond_float(doc):
    doc["tensors"][0]["data"][0] = 10 ** 400


@pytest.mark.parametrize("spoil, entry", [(_extra_entry, "'foo'"),
                                          (_beyond_float, "layers.0.weights")],
                         ids=["extra-entry", "beyond-float"])
def test_malformed_checkpoint_entry_is_named(tmp_path, capsys, spoil, entry):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, init_params([2, 16, 16], 10, head_biases=True, seed=0), "softmax", 0)
    doc = json.loads(path.read_text())
    spoil(doc)
    path.write_text(json.dumps(doc))
    code = main(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: malformed checkpoint {path}: ") and err.count("\n") == 1
    assert entry in err
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


# Any argv built from the real subcommands and flags, over tiny configs, exits
# 0, 1 or 2 with no traceback.  Each case runs `train` and then one to three
# commands with the same flags, so that later stages may find a checkpoint.  A
# config is valid and small (the sizes that scale the run are always set), or
# has one field of a wrong type or out of range.  Flag values stand for paths
# made per case: the config, a missing file, the output directory, a plain
# file, and a checkpoint of the default shapes.
_BAD = st.none() | st.booleans() | st.text(max_size=3) | st.just(-1) | st.just(1.5)
_SECTIONS = {
    "data": {"num_classes": st.integers(2, 5), "n_per_class": st.integers(1, 30),
             "radius": st.floats(0.5, 30), "variance": st.floats(0.1, 5),
             "angle_formula": st.sampled_from(["ring", "literal"]),
             "train_fraction": st.sampled_from([0.3, 0.5, 1.0])},
    "model": {"hidden": st.lists(st.integers(1, 8), min_size=1, max_size=2),
              "distance_init": st.sampled_from(["zeros", "random"])},
    "optim": {"learning_rate": st.floats(1e-4, 0.5), "momentum": st.sampled_from([0.0, 0.9]),
              "batch_size": st.integers(1, 16), "steps": st.integers(0, 50)},
    "sweep": {"kinds": st.lists(st.sampled_from(CORRUPTION_KINDS), min_size=1, unique=True),
              "intensities": st.lists(st.integers(1, 5), min_size=1, max_size=2, unique=True)},
    "ood": {"n": st.none() | st.integers(1, 30), "box_halfwidth": st.floats(5, 60),
            "exclusion_radius": st.floats(0, 10)},
    "metrics": {"num_bins": st.integers(1, 20), "num_thresholds": st.integers(2, 20)},
    "landscape": {"half_extent": st.floats(1, 60), "resolution": st.integers(2, 10)},
}
_SIZES = ("n_per_class", "steps", "resolution")
_TINY = st.fixed_dictionaries(
    {name: st.fixed_dictionaries(
        {key: value for key, value in keys.items() if key in _SIZES},
        optional={key: value for key, value in keys.items() if key not in _SIZES})
     for name, keys in _SECTIONS.items()},
    optional={"seed": st.integers(0, 3)})


def _spoil(config, spoil):
    """``config`` as JSON, with ``section.key`` (or the top-level ``section``
    when ``key`` is None) set to a bad value if ``spoil`` is given."""
    if spoil:
        (section, key), value = spoil
        (config[section] if key else config)[key or section] = value
    return json.dumps(config)


TINY_CONFIGS = st.builds(_spoil, _TINY, st.none() | st.tuples(
    st.sampled_from([(section, key) for section, keys in _SECTIONS.items() for key in keys]
                    + [("seed", None), ("head", None)]), _BAD))
FLAGS = st.fixed_dictionaries({"--head": st.sampled_from([*HEADS, "bogus", None])}, optional={
    "--seed": st.sampled_from(["0", "1", str(2 ** 64), "x"]),
    "--out": st.sampled_from(["OUT", "FILE"]),
    "--checkpoint": st.sampled_from(["CKPT", "MISSING", "CONFIG", "MUTATED"])})


@pytest.fixture(scope="module")
def default_shaped_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
    save_checkpoint(path, init_params([2, 16, 16], 10, head_biases=False, seed=0), "dm", 0)
    return path


def _drop_tensor(doc, i):
    del doc["tensors"][i]


def _reshape(doc, i, shape):
    doc["tensors"][i]["shape"] = shape


def _scale(doc):  # finite, but the model overflows
    for t in doc["tensors"]:
        t["data"] = [v * 1e160 for v in t["data"]]


def _set_value(doc, i, value):
    doc["tensors"][i]["data"][0] = value


def _bogus_head(doc):
    doc["head"] = "bogus"


TENSOR = st.integers(0, 4)  # the default-shaped dm checkpoint holds 5 tensors
MUTATIONS = st.one_of(
    st.tuples(st.just(_drop_tensor), TENSOR),
    st.tuples(st.just(_reshape), TENSOR, st.lists(st.integers(0, 20), max_size=3)),
    st.tuples(st.just(_scale)),
    st.tuples(st.just(_set_value), TENSOR, st.sampled_from([math.nan, 10 ** 400, "x"])),
    st.tuples(st.just(_bogus_head)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=TINY_CONFIGS, flags=FLAGS,
       commands=st.lists(st.sampled_from(["run-all", *STAGES]), min_size=1, max_size=3),
       mutation=MUTATIONS)
def test_any_cli_call_exits_0_1_or_2_without_traceback(tmp_path, capsys, monkeypatch,
                                                       default_shaped_checkpoint,
                                                       config, flags, commands, mutation):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(work)  # the default --out is ./out
    paths = {"CONFIG": work / "config.json", "MISSING": work / "missing.json",
             "OUT": work / "elsewhere", "FILE": work / "file",
             "CKPT": default_shaped_checkpoint, "MUTATED": work / "mutated.json"}
    paths["CONFIG"].write_text(config)
    paths["FILE"].write_text("")
    doc = json.loads(default_shaped_checkpoint.read_text())
    mutation[0](doc, *mutation[1:])
    paths["MUTATED"].write_text(json.dumps(doc))
    for command in ["train", *commands]:
        argv = [command, "--config", str(paths["CONFIG"])]
        for flag, value in flags.items():
            argv += [flag, str(paths.get(value, value))] if value else []
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, config, err)
        assert "Traceback" not in err, (argv, config, err)
