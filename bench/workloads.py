"""The benchmark's workloads and metrics, and why each one exists.

A workload is an ovabench config (JSON overrides of ``ExperimentConfig``)
plus the way the CLI is driven: one ``ovabench run-all`` process, or one
fresh ``ovabench <stage>`` process per stage and head.  The experiment seed
is the benchmark's ``--seed``; the program sees it only as ``--seed``.

Layers are the package's modules: ``data``, ``nncore``, ``heads``,
``metrics``, ``ioutil``, ``harness`` (the stages) and ``cli``.
``BENCHMARK.json`` lists the same names; a test keeps the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

HEADS = ("softmax", "dm", "ova", "ova_dm")
DISTANCE_HEADS = ("dm", "ova_dm")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str  # "run-all": one run-all process; "stages": one process per stage and head
    config: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    # What users run: training is ~88% of the wall time, so the per-step
    # nncore/heads work dominates and metrics/ioutil do little.  Flat
    # parameters must show here.  A parallel `run-all --jobs` cannot while
    # the benchmark pins itself to one CPU (see speed.py).
    Workload("paper", "run-all at the default config, as users run it; training dominates",
             "run-all"),
    # Same code path, but 200 steps and 5x the data and 2.25x the landscape
    # points: training is ~5% of the wall time and the rest is per-row
    # PredictionRecord objects, write_predictions and ~2.6M fmt_float calls.
    # Columnar predictions must show here and not on `paper`.
    Workload("eval_heavy",
             "run-all with 200 steps, 5x data and a 300x300 landscape; "
             "evaluation and file writing dominate",
             "run-all",
             {"optim": {"steps": 200}, "data": {"n_per_class": 5000},
              "landscape": {"resolution": 300}}),
    # The only path that reads checkpoints back, regenerates the data per
    # command and pays interpreter start-up 18 times.  The stage-table
    # refactor and checkpoint v2 change this path, and a cost they add
    # here would not show on the other two workloads.
    Workload("stages_cli",
             "a fresh ovabench process per stage and head (18 commands, 1000 steps); "
             "start-up, data regeneration and checkpoint reads",
             "stages",
             {"optim": {"steps": 1000}}),
)}

# Stage commands per head, in the order they run on `stages_cli`.
STAGES = ("train", "evaluate", "sweep", "landscape", "centers")


def stages_for(head: str) -> tuple[str, ...]:
    return STAGES if head in DISTANCE_HEADS else STAGES[:-1]


# (name, unit, better, bound).  wall_s and cpu_s cover the whole workload
# (cpu_s includes child processes); setup_s is a fresh interpreter importing
# ovabench and generating the workload's datasets; peak_rss_mb is the largest
# RSS of any ovabench process.  ok_ratio is 1 - fail_ratio: failed stages
# plus failed output checks, over the number attempted, reported as the
# complement so that it is never 0.
#
# Times are reported at the nominal speed of bench/speed.py's probe, so that
# a slow stretch of a shared machine does not read as a slower program; the
# raw times are in the run record.  Under heavy contention the normalization
# still leaves paper's wall_s ~6% high, hence the 0.2 bounds.  peak_rss_mb
# of one seed moves by ~7% from run to run (whole-run steps of ~18 MB on
# eval_heavy, likely transparent huge pages), hence 0.22.
#
# The train and evaluation throughputs are per-layer (harness) metrics: on
# two of the three workloads their stages last under 2 s per iteration, too
# short to time steadily on a shared 2-core machine.
END_TO_END = (
    ("wall_s", "s", "lower", 0.2),
    ("cpu_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.22),
    ("ok_ratio", "1", "higher", 0.001),
)


def _per_head(pattern: str, unit: str, heads=HEADS) -> list[tuple[str, str, str]]:
    return [(pattern.format(h=h), unit, "lower") for h in heads]


PER_LAYER = (
    [("harness.train_samples_per_s", "1/s", "higher"),
     ("harness.eval_points_per_s", "1/s", "higher"),
     ("harness.make_datasets_s", "s", "lower")]
    + [m for stage in ("train", "evaluate", "shift_sweep", "landscape", "write_landscape")
       for m in _per_head(f"harness.{stage}_s.{{h}}", "s")]
    + _per_head("harness.centers_s.{h}", "s", DISTANCE_HEADS)
    + _per_head("harness.step_us.{h}", "us")
    + _per_head("harness.step_tail_us.{h}", "us")
    + _per_head("harness.step_gap_us.{h}", "us")
    + _per_head("harness.log_eval_share.{h}", "1")
    + [m for fn in ("forward", "backward", "sgd_step")
       for m in _per_head(f"nncore.{fn}_us.{{h}}", "us")]
    + [("nncore.save_checkpoint_ms", "ms", "lower"), ("nncore.load_checkpoint_ms", "ms", "lower")]
    + [m for fn in ("logits", "loss", "logit_gradient", "grads_self")
       for m in _per_head(f"heads.{fn}_us.{{h}}", "us")]
    + [(f"metrics.{fn}_ms", "ms", "lower")
       for fn in ("ece", "accuracy_vs_confidence", "auroc_auprc", "pca2")]
    + [("metrics.write_predictions_s", "s", "lower"), ("metrics.records_built", "count", "lower")]
    + [(f"data.{fn}_ms", "ms", "lower") for fn in ("gen_ring", "gen_ood", "corrupt")]
    + [("data.ood_accept_ratio", "1", "higher"), ("data.ood_points_kept", "count", "lower"),
       ("data.ood_points_drawn", "count", "lower")]
    + [("ioutil.write_s", "s", "lower"), ("ioutil.bytes_written", "bytes", "lower"),
       ("ioutil.files_written", "count", "lower")]
    + [("cli.startup_s", "s", "lower")]
    + [(f"cli.{stage}_s", "s", "lower") for stage in STAGES]
    + [("cli.make_datasets_calls", "count", "lower")]
    + [("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower"),
       ("trace.span_cost_us", "us", "lower"), ("trace.probe_us", "us", "lower")]
)

# Which end-to-end metric each layer metric should move, and where:
#
# - nncore.*, heads.*, harness.step_us and harness.log_eval_share: wall_s and
#   cpu_s on paper, through harness.train_samples_per_s; under 6% of wall_s
#   on eval_heavy.
# - metrics.*, ioutil.* and harness.{evaluate,shift_sweep,write_landscape}_s:
#   wall_s and peak_rss_mb on eval_heavy, through harness.eval_points_per_s;
#   about 10% of paper.
# - cli.*, nncore.load_checkpoint_ms and cli.make_datasets_calls: wall_s and
#   setup_s on stages_cli; nothing on paper.
# - data.*: setup_s on every workload.
