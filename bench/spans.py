"""In-memory spans around calls into ovabench's modules, recorded from outside.

A span wraps the module attribute that a caller actually looks up.  The
harness imports ``forward`` and ``sgd_step`` from nncore by name, so those
calls are wrapped as ``harness.forward`` and ``harness.sgd_step``; the heads
module imports ``forward`` and ``backward`` by name, so the calls made inside
``loss_and_grads`` are ``heads.forward`` and ``heads.backward``.  Every span
records its name, head, start, end and the span open when it started.  Spans
are kept in flat arrays and written out once, when the process ends.

``STAGE_TARGETS`` are the few stage-level calls (a few dozen per run) that
the untraced run times to split its wall time into training and evaluation.
The traced run adds ``TRACE_TARGETS``.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array

import numpy as np

HEAD_NAMES = ("softmax", "dm", "ova", "ova_dm")

STAGE_TARGETS = {
    "harness": ("make_datasets", "train", "evaluate", "shift_sweep", "landscape",
                "write_landscape_csv", "write_landscape_pgm", "centers_report",
                "write_centers_csv"),
}

TRACE_TARGETS = {
    "harness": ("run_all", "forward", "sgd_step", "save_checkpoint", "init_params",
                "make_optimizer", "boxplot_stats", "write_csv", "write_json"),
    "heads": ("loss_and_grads", "logits", "loss", "logit_gradient", "probabilities",
              "predict", "forward", "backward"),
    "metrics": ("ece", "accuracy_vs_confidence", "auroc_auprc", "confidence_histograms",
                "pca2", "write_predictions", "write_csv"),
    "data": ("gen_ring", "split", "corrupt", "save_dataset", "write_csv"),
    "cli": ("load_checkpoint",),
}

# Calls whose first argument is the path of a file they write through ioutil.
IOUTIL_WRITERS = {"write_csv", "write_json"}

# Calls that name their head (as an argument, or as the head of the config
# they get).  Every other span inherits the head of the last one of these.
HEAD_ARG = {"train", "evaluate", "shift_sweep", "landscape", "centers_report",
            "loss_and_grads", "logits", "loss", "logit_gradient", "probabilities"}


class Tracer:
    """Records spans and counters; ``install`` patches, ``restore`` undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.head = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self.current_head = -1
        self.counters = {"records_built": 0, "ood_points_kept": 0, "ood_points_drawn": 0,
                         "bytes_written": 0, "files_written": 0}
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _head_of(self, args, kwargs) -> int:
        for value in (*args, *kwargs.values()):
            head = getattr(value, "head", value)  # an ExperimentConfig carries one
            if type(head) is self._head_type:
                return HEAD_NAMES.index(head.value)
        return -1

    def wrap(self, fn, name: str, find_head: bool, after=None):
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter_ns
        names, heads, starts, ends, parents = (self.name, self.head, self.start,
                                               self.end, self.parent)
        tracer = self

        def traced(*args, **kwargs):
            h = tracer._head_of(args, kwargs) if find_head else -1
            if h < 0:
                h = tracer.current_head
            else:
                tracer.current_head = h
            idx = len(starts)
            names.append(nid)
            heads.append(h)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, full: bool) -> None:
        """Wrap the stage calls, and with ``full`` every call in TRACE_TARGETS."""
        import importlib
        self._head_type = importlib.import_module("ovabench.heads").HeadKind
        targets = {mod: list(attrs) for mod, attrs in STAGE_TARGETS.items()}
        if full:
            for mod, attrs in TRACE_TARGETS.items():
                targets.setdefault(mod, []).extend(attrs)
        for mod_name, attrs in targets.items():
            module = importlib.import_module(f"ovabench.{mod_name}")
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                after = self._count_write if attr in IOUTIL_WRITERS else None
                self._patch(module, attr, self.wrap(fn, f"{mod_name}.{attr}",
                                                    attr in HEAD_ARG, after))
        if full:
            self._install_counters(importlib.import_module("ovabench.harness"),
                                   importlib.import_module("ovabench.data"))

    def _install_counters(self, harness, data) -> None:
        counters = self.counters
        record_cls = getattr(harness, "PredictionRecord", None)
        if record_cls is None:
            self.missing.append("harness.PredictionRecord")
        else:
            def counted_record(*args, **kwargs):
                counters["records_built"] += 1
                return record_cls(*args, **kwargs)
            self._patch(harness, "PredictionRecord", counted_record)

        gen_ood = getattr(data, "gen_ood", None)
        if gen_ood is None:
            self.missing.append("data.gen_ood")
            return
        if "with_attempts" in inspect.signature(gen_ood).parameters:
            def gen_ood_counted(*args, **kwargs):
                points, drawn = gen_ood(*args, **{**kwargs, "with_attempts": True})
                counters["ood_points_kept"] += len(points)
                counters["ood_points_drawn"] += int(drawn)
                return points
        else:
            self.missing.append("data.gen_ood(with_attempts)")
            gen_ood_counted = gen_ood
        self._patch(data, "gen_ood", self.wrap(gen_ood_counted, "data.gen_ood", False))

    def _count_write(self, args, kwargs, _result) -> None:
        path = args[0] if args else kwargs["path"]
        self.counters["files_written"] += 1
        self.counters["bytes_written"] += os.path.getsize(path)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def save(self, path) -> None:
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 head=np.frombuffer(self.head, dtype=np.int8),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 names=np.array(self.names, dtype=str))


def span_cost_ns(calls: int = 4000, rounds: int = 5) -> float:
    """What one span adds to a call: a traced no-op against a plain one,
    median over ``rounds``."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "calibration", find_head=False)
    clock = time.perf_counter_ns
    costs = []
    for _ in range(rounds):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return float(np.median(costs))


class SpanTable:
    """Spans of one process as arrays, with names resolved."""

    def __init__(self, names, name, head, start, end, parent):
        self.names = list(names)
        self.name = np.asarray(name, dtype=np.int64)
        self.head = np.asarray(head, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.int64)
        self.end = np.asarray(end, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.duration = self.end - self.start
        self.self_time = self_times(self.start, self.end, self.parent)

    @classmethod
    def load(cls, path) -> "SpanTable":
        with np.load(path) as f:
            return cls(f["names"].tolist(), f["name"], f["head"], f["start"], f["end"],
                       f["parent"])

    def __len__(self) -> int:
        return len(self.start)

    def is_(self, *names: str) -> np.ndarray:
        """Mask of spans whose name is one of ``names``."""
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def parent_is(self, mask: np.ndarray) -> np.ndarray:
        """Mask of spans whose parent is selected by ``mask``."""
        has = self.parent >= 0
        out = np.zeros(len(self), dtype=bool)
        out[has] = mask[self.parent[has]]
        return out


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the part of its interval that its children cover.

    Children are clipped to their parent's interval, and overlapping
    children are counted once.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    cover = [0] * len(start)
    order = np.lexsort((start, parent))
    order = order[parent[order] >= 0].tolist()
    s, e, p = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0
    for i in order:
        par = p[i]
        if par != current:
            current, reach = par, s[par]
        lo = max(s[i], reach)
        hi = min(e[i], e[par])
        if hi > lo:
            cover[par] += hi - lo
            reach = hi
    return (end - start) - np.asarray(cover, dtype=np.int64)
