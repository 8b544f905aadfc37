"""Tests of the benchmark itself: output checks, span arithmetic, metric names.

Run with ``PYTHONPATH=src python -m pytest bench/tests``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from bench import run
from bench.checks import check_metrics, check_sweep, read_predictions
from bench.layers import steps, tail
from bench.spans import SpanTable, self_times
from bench.workloads import END_TO_END, PER_LAYER, WORKLOADS, Workload

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

TINY = {"optim": {"steps": 30}, "data": {"n_per_class": 40},
        "landscape": {"resolution": 6}, "sweep": {"intensities": [1, 5]}}


@pytest.fixture(scope="module")
def tiny_tree(tmp_path_factory):
    from ovabench.harness import ExperimentConfig, run_all

    out = tmp_path_factory.mktemp("tree") / "out"
    assert run_all(ExperimentConfig.from_dict(TINY), out).ok
    return out


@pytest.fixture
def isolated(monkeypatch, tmp_path):
    """Benchmark runs write under tmp_path and know the tiny workloads."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    tiny = {"tiny_all": Workload("tiny_all", "test", "run-all", TINY),
            "tiny_stages": Workload("tiny_stages", "test", "stages", TINY)}
    monkeypatch.setattr(run, "WORKLOADS", {**WORKLOADS, **tiny})


def _edit_first_confidence(path: Path) -> None:
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[0] = repr(float(cells[0]) * 0.5)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_untouched_tree_passes_every_check(tiny_tree):
    for head in ("softmax", "dm", "ova", "ova_dm"):
        checks, rows = check_metrics(tiny_tree / head)
        sweep, _ = check_sweep(tiny_tree / head, 15)
        assert rows == 400 and len(sweep) == 5
        assert all(c.ok for c in checks + sweep), [c for c in checks + sweep if not c.ok]


def test_hand_edited_predictions_fail_the_check(tiny_tree, tmp_path):
    import shutil

    head_dir = tmp_path / "ova"
    shutil.copytree(tiny_tree / "ova", head_dir)
    _edit_first_confidence(head_dir / "predictions.csv")
    _edit_first_confidence(head_dir / "shift" / "predictions_rotation_5.csv")
    failed = [c.name for c in check_metrics(head_dir)[0] + check_sweep(head_dir, 15)[0]
              if not c.ok]
    assert "ova/metrics.json ece" in failed
    assert failed[-1] == "ova/sweep.csv rotation:5"


def test_prediction_parser_reads_ood_rows(tiny_tree):
    p = read_predictions(tiny_tree / "softmax" / "predictions.csv")
    assert len(p) == 400 and p.is_ood.sum() == 200
    assert (p.true[p.is_ood] == -1).all() and (p.true[~p.is_ood] >= 0).all()


def test_self_time_subtracts_the_union_of_children():
    #   0: [0, 100]  root
    #   1: [10, 30]  child of 0
    #   2: [20, 50]  child of 0, overlapping 1
    #   3: [90, 120] child of 0, running past its parent's end
    #   4: [12, 18]  child of 1; does not count against 0
    start = [0, 10, 20, 90, 12]
    end = [100, 30, 50, 120, 18]
    parent = [-1, 0, 0, 0, 1]
    assert self_times(start, end, parent).tolist() == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_steps_pair_loss_and_grads_with_the_following_sgd_step():
    names = ["harness.train", "heads.loss_and_grads", "heads.forward", "harness.sgd_step",
             "harness.forward"]
    #        train  lag  fwd  sgd  lag  sgd  log-eval forward
    name = [0, 1, 2, 3, 1, 3, 4]
    start = [0, 10, 11, 25, 40, 52, 70]
    end = [100, 20, 15, 30, 50, 60, 80]
    parent = [-1, 0, 1, 0, 0, 0, 0]
    spans = SpanTable(names, name, [3] * 7, start, end, parent)
    _, step, parts, inside = steps(spans)
    assert step.tolist() == [20, 20] and (step - parts).tolist() == [5, 2]
    assert inside.tolist() == [3, 2]


def test_tail_uses_p99_only_with_1000_samples():
    assert tail(np.arange(1000.0)) == pytest.approx(np.quantile(np.arange(1000.0), 0.99))
    assert tail(np.arange(200.0)) == pytest.approx(np.quantile(np.arange(200.0), 0.95))
    assert tail(np.arange(5.0)) == 4.0


def test_benchmark_json_matches_the_definitions():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [tuple(m.values()) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [tuple(m.values()) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)


def _printed_result(capsys, *args: str) -> dict:
    assert run.main(["--seed", "3", "--seconds", "0", *args]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_printed_end_to_end_names_equal_benchmark_json(isolated, capsys):
    result = _printed_result(capsys, "--workload", "tiny_all", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_printed_per_layer_names_equal_benchmark_json(isolated, capsys):
    result = _printed_result(capsys, "--workload", "tiny_stages", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert metrics["cli.make_datasets_calls"]["value"] == 14
    assert metrics["metrics.records_built"]["value"] == 4 * (400 + 5 * 200)
    for head in ("softmax", "dm", "ova", "ova_dm"):
        assert 0 < metrics[f"harness.step_gap_us.{head}"]["value"] < \
            metrics[f"harness.step_us.{head}"]["value"]


def test_a_changed_tree_fails_the_determinism_check(isolated):
    assert run.determinism_check("w|0|c|s", "aaa").ok
    assert run.determinism_check("w|0|c|s", "aaa").ok
    assert not run.determinism_check("w|0|c|s", "bbb").ok
    assert run.determinism_check("w|1|c|s", "bbb").ok


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "paper", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
