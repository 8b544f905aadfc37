"""Per-layer metrics from the spans of one traced workload run.

A training step runs from the start of ``heads.loss_and_grads`` to the end
of the ``harness.sgd_step`` that follows it inside ``harness.train``.  Its
parts are ``heads.forward``, ``heads.logits``, ``heads.loss``,
``heads.logit_gradient``, the self time of ``loss_and_grads`` (the head
gradients plus glue), ``heads.backward`` and ``harness.sgd_step``; the step
gap is what the step spends outside them.  The every-100-step log
evaluation is told apart from the step by its calls through
``harness.forward``: it is every direct child of ``harness.train`` in
``LOG_EVAL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spans import HEAD_NAMES, SpanTable
from .workloads import DISTANCE_HEADS, STAGES

LOG_EVAL = ("harness.forward", "heads.logits", "heads.probabilities", "heads.predict",
            "heads.loss")

# The harness calls that make up each CLI stage.
STAGE_CALLS = {
    "train": ("harness.train",),
    "evaluate": ("harness.evaluate",),
    "sweep": ("harness.shift_sweep",),
    "landscape": ("harness.landscape", "harness.write_landscape_csv",
                  "harness.write_landscape_pgm"),
    "centers": ("harness.centers_report", "harness.write_centers_csv"),
}
EVAL_CALLS = tuple(call for stage in STAGES[1:] for call in STAGE_CALLS[stage])


@dataclass
class Process:
    """One ovabench process of a workload run, as the parent saw it."""

    command: str  # "run-all" or a stage name
    spawn_ns: int
    imported_ns: int
    exit_ns: int
    spans: SpanTable
    counters: dict = field(default_factory=dict)
    span_cost_ns: float | None = None
    missing: list[str] = field(default_factory=list)  # targets the program no longer has


def _head_ids(spans: SpanTable, head: str) -> np.ndarray:
    return spans.head == HEAD_NAMES.index(head)


def total_s(procs: list[Process], names, head: str | None = None) -> float:
    """Summed duration, in seconds, of the spans called ``names``."""
    total = 0
    for p in procs:
        mask = p.spans.is_(*names)
        if head is not None:
            mask &= _head_ids(p.spans, head)
        total += int(p.spans.duration[mask].sum())
    return total / 1e9


def count(procs: list[Process], *names: str) -> int:
    return sum(int(p.spans.is_(*names).sum()) for p in procs)


def _per_call(procs: list[Process], name: str, head: str | None = None,
              under: str | None = None, self_time: bool = False) -> np.ndarray:
    """Durations (ns) of the spans called ``name``, optionally only those of
    ``head`` and only those called from ``under``: "train" for direct
    children of harness.train, "step" for calls inside a training step."""
    out = []
    for p in procs:
        s = p.spans
        mask = s.is_(name)
        if head is not None:
            mask &= _head_ids(s, head)
        if under is not None:
            parent = s.is_("harness.train")
            if under == "step":
                parent = s.is_("heads.loss_and_grads") & s.parent_is(parent)
            mask &= s.parent_is(parent)
        out.append((s.self_time if self_time else s.duration)[mask])
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


def steps(spans: SpanTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per training step: head, duration (ns), duration of loss_and_grads +
    sgd_step (ns), and the number of spans recorded inside it."""
    in_train = spans.parent_is(spans.is_("harness.train"))
    lag = spans.is_("heads.loss_and_grads") & in_train
    sgd = spans.is_("harness.sgd_step") & in_train
    idx = np.flatnonzero(lag | sgd)  # in start order
    first = idx[:-1][lag[idx[:-1]] & sgd[idx[1:]]
                     & (spans.parent[idx[:-1]] == spans.parent[idx[1:]])]
    nxt = idx[np.searchsorted(idx, first) + 1]
    step = spans.end[nxt] - spans.start[first]
    parts = spans.duration[first] + spans.duration[nxt]
    # Spans are numbered in start order, so the last one starting inside a
    # step is the step's own sgd_step or one of its children.
    inside = np.searchsorted(spans.start, spans.end[nxt], side="right") - first
    return spans.head[first], step, parts, inside


def step_accounting(procs: list[Process]) -> dict[str, dict[str, float]]:
    """Per head, in raw microseconds: the mean step, the mean of the traced
    parts that make it up, and what tracing adds per step (spans recorded
    inside a step times the cost of one span)."""
    per_step = [steps(p.spans) for p in procs]
    head, step, parts, inside = (np.concatenate([s[i] for s in per_step]) for i in range(4))
    span_cost_us = median([p.span_cost_ns for p in procs if p.span_cost_ns is not None]) / 1e3
    out = {}
    for h in HEAD_NAMES:
        mine = head == HEAD_NAMES.index(h)
        if mine.any():
            out[h] = {"step_us": float(step[mine].mean()) / 1e3,
                      "parts_us": float(parts[mine].mean()) / 1e3,
                      "tracing_us": float(inside[mine].mean()) * span_cost_us}
    return out


def median(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.median(values)) if values.size else 0.0


def tail(values) -> float:
    """p99 with at least 1000 samples, else the highest percentile that leaves
    ten samples above it (the maximum below 11 samples)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    q = 0.99 if values.size >= 1000 else max(0.0, 1.0 - 10.0 / values.size)
    return float(np.quantile(values, q)) if q > 0.5 else float(values.max())


def layer_metrics(procs: list[Process], load_checkpoint_ns: list[int]) -> dict[str, float]:
    """The per-layer metrics that the spans of one traced iteration give, in
    raw (not speed-normalized) time."""
    m: dict[str, float] = {}
    m["harness.make_datasets_s"] = median(_per_call(procs, "harness.make_datasets")) / 1e9
    for stage in ("train", "evaluate", "shift_sweep", "landscape"):
        for h in HEAD_NAMES:
            m[f"harness.{stage}_s.{h}"] = total_s(procs, [f"harness.{stage}"], h)
    for h in HEAD_NAMES:
        m[f"harness.write_landscape_s.{h}"] = total_s(
            procs, ["harness.write_landscape_csv", "harness.write_landscape_pgm"], h)
    for h in DISTANCE_HEADS:
        m[f"harness.centers_s.{h}"] = total_s(procs, STAGE_CALLS["centers"], h)

    step_parts = [steps(p.spans)[:3] for p in procs]
    step_head = np.concatenate([s[0] for s in step_parts])
    step_ns = np.concatenate([s[1] for s in step_parts])
    step_gap = step_ns - np.concatenate([s[2] for s in step_parts])
    for h in HEAD_NAMES:
        mine = step_head == HEAD_NAMES.index(h)
        m[f"harness.step_us.{h}"] = median(step_ns[mine]) / 1e3
        m[f"harness.step_tail_us.{h}"] = tail(step_ns[mine]) / 1e3
        m[f"harness.step_gap_us.{h}"] = float(step_gap[mine].mean()) / 1e3 if mine.any() else 0.0
    for h in HEAD_NAMES:
        log_eval = sum(int(_per_call(procs, name, h, "train").sum()) for name in LOG_EVAL) / 1e9
        train = m[f"harness.train_s.{h}"]
        m[f"harness.log_eval_share.{h}"] = log_eval / train if train else 0.0

    for h in HEAD_NAMES:
        m[f"nncore.forward_us.{h}"] = median(_per_call(procs, "heads.forward", h, "step")) / 1e3
        m[f"nncore.backward_us.{h}"] = median(_per_call(procs, "heads.backward", h, "step")) / 1e3
        m[f"nncore.sgd_step_us.{h}"] = median(_per_call(procs, "harness.sgd_step", h)) / 1e3
    m["nncore.save_checkpoint_ms"] = median(_per_call(procs, "harness.save_checkpoint")) / 1e6
    loads = np.concatenate([_per_call(procs, "cli.load_checkpoint"),
                            np.asarray(load_checkpoint_ns, dtype=np.int64)])
    m["nncore.load_checkpoint_ms"] = median(loads) / 1e6
    for fn in ("logits", "loss", "logit_gradient"):
        for h in HEAD_NAMES:
            m[f"heads.{fn}_us.{h}"] = median(_per_call(procs, f"heads.{fn}", h, "step")) / 1e3
    for h in HEAD_NAMES:
        m[f"heads.grads_self_us.{h}"] = median(
            _per_call(procs, "heads.loss_and_grads", h, "train", self_time=True)) / 1e3

    for fn in ("ece", "accuracy_vs_confidence", "auroc_auprc", "pca2"):
        m[f"metrics.{fn}_ms"] = median(_per_call(procs, f"metrics.{fn}")) / 1e6
    m["metrics.write_predictions_s"] = total_s(procs, ["metrics.write_predictions"])
    counters = {key: sum(p.counters.get(key, 0) for p in procs)
                for key in ("records_built", "ood_points_kept", "ood_points_drawn",
                            "bytes_written", "files_written")}
    m["metrics.records_built"] = counters["records_built"]

    for fn in ("gen_ring", "gen_ood", "corrupt"):
        m[f"data.{fn}_ms"] = median(_per_call(procs, f"data.{fn}")) / 1e6
    drawn = counters["ood_points_drawn"]
    m["data.ood_accept_ratio"] = counters["ood_points_kept"] / drawn if drawn else 0.0
    m["data.ood_points_kept"] = counters["ood_points_kept"]
    m["data.ood_points_drawn"] = drawn

    m["ioutil.write_s"] = total_s(procs, ["harness.write_csv", "harness.write_json",
                                          "data.write_csv", "metrics.write_csv"])
    m["ioutil.bytes_written"] = counters["bytes_written"]
    m["ioutil.files_written"] = counters["files_written"]

    m["cli.startup_s"] = sum(p.imported_ns - p.spawn_ns for p in procs) / 1e9
    for stage in STAGES:
        # A stage command's own wall time; under run-all, the stage's calls.
        own = [p for p in procs if p.command == stage]
        if own:
            m[f"cli.{stage}_s"] = sum(p.exit_ns - p.spawn_ns for p in own) / 1e9
        else:
            m[f"cli.{stage}_s"] = total_s(procs, STAGE_CALLS[stage])
    m["cli.make_datasets_calls"] = count(procs, "harness.make_datasets")
    m["trace.spans"] = sum(len(p.spans) for p in procs)
    m["trace.span_cost_us"] = median([p.span_cost_ns for p in procs
                                      if p.span_cost_ns is not None]) / 1e3
    return m
